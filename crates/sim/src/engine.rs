//! The generic sweep engine: one [`Simulator`] trait, one [`Sweep`].
//!
//! Before this module existed, every execution backend (the abstract
//! windowed simulator, the 802.11g MAC simulator) carried its own
//! near-identical sweep struct, and many figures hand-rolled their own trial
//! loops on top. The engine collapses all of that into:
//!
//! * [`Simulator`] — how to run one trial of a backend: an associated
//!   `Config`, an associated raw `Output`, and a pure
//!   `run(config, n, rng) -> Output` function.
//! * [`run_trial`] — one trial with the canonical
//!   `(experiment tag, algorithm, n, trial)` RNG derivation. Every trial in
//!   the repository — sweeps, figures, benches — goes through this
//!   derivation, so any number anywhere is reproducible in isolation.
//! * [`Sweep`] — the Cartesian `(algorithm × n × trial)` grid, executed on
//!   the batched deterministic runner under an [`ExecPolicy`].
//!
//! The engine *streams*: work items are generated on the fly from a single
//! cursor (never materialized as a grid `Vec`), workers claim trials in
//! batches, and each trial's result is **folded into a per-cell
//! [`Accumulator`] inside the worker**. A figure that only needs two metrics
//! of a million-trial sweep retains two `f64`s per trial — not a
//! `TrialSummary` — which is what lets the abstract sweeps reach the paper's
//! full n = 10⁵ grid (and 10⁶) in one process. The collect-style API
//! ([`Sweep::run`], [`Sweep::run_mapped`]) still exists and is itself a fold
//! into position-addressed slots, so both paths are bit-identical by
//! construction across thread counts *and* batch sizes.
//!
//! A backend plugs in by implementing `Simulator`; nothing else in the
//! experiment layer changes. This is the seam where additional channel
//! models (e.g. the noisy/corrupted-slot model of arXiv:2408.11275) slot in.

use crate::monitor::{SnapshotCadence, SweepMonitor, SweepSnapshot};
use crate::parallel::{parallel_for_batches, parallel_for_tapered, TaperSchedule};
use crate::progress::Progress;
use crate::summary::TrialSummary;
use contention_core::algorithm::AlgorithmKind;
use contention_core::rng::{experiment_tag, trial_rng};
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long the snapshot thread sleeps between cadence checks. Snapshots
/// themselves are taken at the requested cadence; this only bounds how stale
/// the "is one due?" decision can be.
const SNAPSHOT_POLL: Duration = Duration::from_millis(20);

/// Locks `mutex`, ignoring poison: a panicked critical section leaves the
/// data as it was, and the panic itself already propagates out of the sweep.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The internals a monitored run threads to its snapshot thread. The
/// accumulator clone is a stored `fn` so the common (unmonitored) paths do
/// not pick up an `A: Clone` bound.
struct MonitorHook<'a, A> {
    cadence: SnapshotCadence,
    sink: &'a dyn SweepMonitor<A>,
    clone_acc: fn(&A) -> A,
}

/// One execution backend: everything [`Sweep`] needs to run trials of it.
///
/// Implementations are zero-sized entry points (trial state lives inside
/// `run_with`'s scratch arena), so a `Sweep<S>` is fully described by its
/// config and grid.
pub trait Simulator {
    /// Full per-trial configuration, including the algorithm under test.
    type Config: Clone + Send + Sync;
    /// Raw per-trial output. Backends with a [`TrialSummary`] conversion get
    /// [`Sweep::run`] and [`Sweep::run_fold`]; the rest use
    /// [`Sweep::run_raw`] / [`Sweep::run_fold_raw`].
    type Output: Send;
    /// Reusable per-worker scratch arena: event queues, station tables,
    /// occupancy buffers — everything a trial needs that is not part of its
    /// output. The engine builds one per worker thread and threads it
    /// through every trial that worker claims, so steady-state trials don't
    /// touch the allocator. Backends without reusable state use `()`.
    type Scratch: Default + Send;

    /// Short name used in diagnostics.
    const NAME: &'static str;

    /// The algorithm a config runs — used to derive the per-trial RNG.
    fn algorithm(config: &Self::Config) -> AlgorithmKind;

    /// A copy of `config` running `algorithm` instead; how [`Sweep`] builds
    /// each cell's config from its base config.
    fn with_algorithm(config: &Self::Config, algorithm: AlgorithmKind) -> Self::Config;

    /// One trial of `n` stations, using (and resetting) `scratch`. Must be
    /// a pure function of `(config, n, rng)` — the scratch arena may only
    /// affect *where* intermediate state lives, never a single output bit;
    /// determinism of every sweep rests on this.
    fn run_with(
        config: &Self::Config,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut Self::Scratch,
    ) -> Self::Output;

    /// One trial on a fresh scratch arena (single-shot callers).
    fn run(config: &Self::Config, n: u32, rng: &mut SmallRng) -> Self::Output {
        Self::run_with(config, n, rng, &mut Self::Scratch::default())
    }
}

/// Runs a single trial with the canonical RNG derivation.
///
/// This is the one place where `(experiment, algorithm, n, trial)` turns
/// into a generator; figures, sweeps and benches all share it.
pub fn run_trial<S: Simulator>(
    experiment: &str,
    config: &S::Config,
    n: u32,
    trial: u32,
) -> S::Output {
    run_trial_with::<S>(experiment, config, n, trial, &mut S::Scratch::default())
}

/// [`run_trial`] on a caller-owned scratch arena — what a caller measuring
/// or running many trials should use, mirroring the engine's per-worker
/// arena reuse. Bit-identical to `run_trial`.
pub fn run_trial_with<S: Simulator>(
    experiment: &str,
    config: &S::Config,
    n: u32,
    trial: u32,
    scratch: &mut S::Scratch,
) -> S::Output {
    let algorithm = S::algorithm(config);
    let mut rng = trial_rng(experiment_tag(experiment), algorithm, n, trial);
    S::run_with(config, n, &mut rng, scratch)
}

/// A per-cell streaming reducer: the engine folds each trial's result into
/// it inside the worker thread, instead of collecting results into a `Vec`.
///
/// Trials of a cell arrive **exactly once each but in arbitrary order**
/// (workers race). For the sweep to stay bit-identical across thread counts
/// and batch sizes, the final state must not depend on arrival order: either
/// address by position (write trial `t` into slot `t` — what the built-in
/// collectors do) or fold with an exactly order-independent operation
/// (counts, integer sums, min/max). Order-*sensitive* floating-point folds
/// (e.g. running means) would silently break determinism — keep them out of
/// accumulators.
pub trait Accumulator<T> {
    /// Folds the result of trial `trial` (0-based within the cell) in.
    fn record(&mut self, trial: u32, value: T);
}

/// The merge side of the process-sharding seam, re-exported next to
/// [`Accumulator`]. Defined in `contention-core` so collector crates can
/// implement it without depending on the engine.
pub use contention_core::merge::MergeableAccumulator;

/// A half-open range `[lo, hi)` of grid-cell indices — the unit of
/// process-level sharding.
///
/// Cells are indexed in grid order (algorithms outer, `ns` inner), the same
/// order [`Sweep`] returns them in. Restricting a sweep to a cell range
/// changes *which* cells run, never what any cell computes: per-trial RNG
/// streams depend only on `(experiment, algorithm, n, trial)`, so the cells
/// of a ranged run are bit-identical to the same cells of a full run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRange {
    /// First cell index covered.
    pub lo: usize,
    /// One past the last cell index covered.
    pub hi: usize,
}

impl CellRange {
    /// The contiguous range shard `index` of `of` covers in a grid of
    /// `cells` cells — the balanced partition `[i·C/N, (i+1)·C/N)`. Every
    /// shard is within one cell of the same size, and the `of` ranges tile
    /// `[0, cells)` exactly.
    pub fn shard(cells: usize, index: usize, of: usize) -> CellRange {
        assert!(of >= 1, "shard count must be at least 1");
        assert!(
            index < of,
            "shard index {index} out of range for {of} shards"
        );
        CellRange {
            lo: index * cells / of,
            hi: (index + 1) * cells / of,
        }
    }

    /// The contiguous range shard `index` of `of` covers in a grid whose
    /// cells carry the given estimated `weights` — the cost-balanced
    /// partition: shard boundaries land where the weight prefix crosses
    /// `i/of` of the total, so every shard gets (as nearly as contiguity
    /// allows) the same estimated *work*, not the same cell count. The `of`
    /// ranges tile `[0, weights.len())` exactly, like [`shard`]; with
    /// uniform weights the two partitions coincide. Non-finite,
    /// non-positive or all-zero weights degrade safely (junk entries count
    /// as zero; a zero total falls back to the count-balanced partition).
    pub fn shard_weighted(weights: &[f64], index: usize, of: usize) -> CellRange {
        assert!(of >= 1, "shard count must be at least 1");
        assert!(
            index < of,
            "shard index {index} out of range for {of} shards"
        );
        let cells = weights.len();
        let mut prefix = Vec::with_capacity(cells + 1);
        let mut acc = 0.0f64;
        prefix.push(0.0);
        for &w in weights {
            if w.is_finite() && w > 0.0 {
                acc += w;
            }
            prefix.push(acc);
        }
        let total = prefix[cells];
        if total <= 0.0 {
            return CellRange::shard(cells, index, of);
        }
        // Boundary i sits at the first prefix ≥ total·i/of; boundaries are
        // monotone because the goals are, and the final one is pinned to
        // `cells` so trailing zero-weight cells (and float slop) always
        // land in the last shard.
        let bound = |i: usize| -> usize {
            if i == of {
                return cells;
            }
            let goal = total * i as f64 / of as f64;
            prefix.partition_point(|&p| p < goal).min(cells)
        };
        CellRange {
            lo: bound(index),
            hi: bound(index + 1),
        }
    }

    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

/// A contiguous run `[lo, hi)` of trial indices inside one grid cell — the
/// unit of *trial*-granular work distribution (a work-server lease is a list
/// of these).
///
/// Where [`CellRange`] splits a grid between processes a whole cell at a
/// time, a `TrialRange` splits *inside* a cell, so a single giant-`n` cell
/// can be spread across a fleet of workers. Like cell ranges, trial ranges
/// change only *which* trials run: per-trial RNG streams depend on
/// `(experiment, algorithm, n, trial)` alone, so the trials of any tiling
/// are bit-identical to the same trials of a full run — which is what lets
/// partial cells merge back losslessly through the accumulator seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRange {
    /// Full-grid cell index (algorithms outer, `ns` inner).
    pub cell: usize,
    /// First trial index covered.
    pub lo: u32,
    /// One past the last trial index covered.
    pub hi: u32,
}

impl TrialRange {
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Partitions a sparse work plan — `(cell index, trial list)` pairs, the
    /// same shape sweeps take as a missing-work plan — into at most `target`
    /// leases of roughly equal estimated cost, each lease a list of trial
    /// ranges.
    ///
    /// `trial_costs[cell]` is the estimated cost of one trial of that cell
    /// (the [`CostSpec`](crate::cost::CostSpec) per-trial table); lease
    /// boundaries land where the cost prefix crosses `k/target` of the
    /// total, so a heavy cell splits across as many leases as its weight
    /// demands while light neighbours coalesce into one. Junk cost entries
    /// (non-finite or non-positive, or a missing table entry) count as one
    /// unit, so a degenerate table degrades to trial-count balancing rather
    /// than collapsing the partition. The returned leases tile the plan
    /// exactly, in plan order, with consecutive trials of one cell fused
    /// into single ranges; empty leases are never emitted, so fewer than
    /// `target` leases come back when the plan is small.
    pub fn partition(
        plan: &[(usize, Vec<u32>)],
        trial_costs: &[f64],
        target: usize,
    ) -> Vec<Vec<TrialRange>> {
        assert!(target >= 1, "lease target must be at least 1");
        let sane = |cell: usize| -> f64 {
            let c = trial_costs.get(cell).copied().unwrap_or(1.0);
            if c.is_finite() && c > 0.0 {
                c
            } else {
                1.0
            }
        };
        let total: f64 = plan
            .iter()
            .map(|(cell, trials)| sane(*cell) * trials.len() as f64)
            .sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let goal = total / target as f64;
        let mut leases: Vec<Vec<TrialRange>> = Vec::new();
        let mut current: Vec<TrialRange> = Vec::new();
        let mut cum = 0.0f64;
        let fuse = |lease: &mut Vec<TrialRange>, cell: usize, trial: u32| {
            if let Some(last) = lease.last_mut() {
                if last.cell == cell && last.hi == trial {
                    last.hi = trial + 1;
                    return;
                }
            }
            lease.push(TrialRange {
                cell,
                lo: trial,
                hi: trial + 1,
            });
        };
        for (cell, trials) in plan {
            let w = sane(*cell);
            for &t in trials {
                fuse(&mut current, *cell, t);
                cum += w;
                // Close the lease once the global prefix crosses its share
                // of the total; the last lease absorbs whatever remains so
                // the tiling is exact.
                if leases.len() + 1 < target && cum >= goal * (leases.len() + 1) as f64 {
                    leases.push(std::mem::take(&mut current));
                }
            }
        }
        if !current.is_empty() {
            leases.push(current);
        }
        leases
    }
}

/// How a sweep executes: worker threads, trials per work-item claim, cell
/// range, and whether to report progress. Orthogonal to *what* the sweep
/// computes — results are identical for every policy (a cell range selects a
/// subset of the cells; it never changes their contents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Worker threads (`None` = all available, `Some(0|1)` = sequential).
    /// The engine caps the effective count at the machine's available
    /// parallelism — oversubscribed workers cost context switches without
    /// buying wall-clock, and results never depend on the worker count.
    pub threads: Option<usize>,
    /// Trials claimed per scheduling step. `None` (the default) uses
    /// tapered (guided self-scheduling) claims — sized off remaining
    /// estimated work, shrinking toward one trial at the tail — with
    /// heaviest cells claimed first when the run carries a cost table.
    /// `Some(b)` pins fixed `b`-trial batches in grid order. Purely a
    /// performance knob either way: results are bit-identical for every
    /// setting.
    pub batch: Option<usize>,
    /// Run only the grid cells in `[lo, hi)` (`None` = the whole grid) —
    /// the process-sharding seam: each shard folds its cell range, and the
    /// per-cell accumulator states merge back losslessly.
    pub cells: Option<CellRange>,
    /// Report trials-completed / ETA on stderr (only when stderr is a TTY).
    pub progress: bool,
}

impl ExecPolicy {
    /// Policy with an explicit worker count.
    pub fn threads(threads: usize) -> ExecPolicy {
        ExecPolicy {
            threads: Some(threads),
            ..ExecPolicy::default()
        }
    }

    /// Same policy with an explicit batch size.
    pub fn with_batch(mut self, batch: usize) -> ExecPolicy {
        self.batch = Some(batch);
        self
    }

    /// Same policy restricted to the grid cells in `range`.
    pub fn with_cells(mut self, range: CellRange) -> ExecPolicy {
        self.cells = Some(range);
        self
    }
}

/// One aggregate cell: all trials of one `(algorithm, n)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell<T> {
    pub algorithm: AlgorithmKind,
    pub n: u32,
    pub trials: Vec<T>,
}

/// The summarized cell type every collect-style consumer uses.
pub type SweepCell = Cell<TrialSummary>;

/// One cell of a folded sweep: the accumulator state after every trial of
/// one `(algorithm, n)` pair has been folded in.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedCell<A> {
    pub algorithm: AlgorithmKind,
    pub n: u32,
    pub acc: A,
}

/// A Cartesian `(algorithm × n × trial)` sweep over one simulator.
///
/// Every trial derives its RNG from `(experiment tag, algorithm, n, trial)`,
/// so the sweep's numbers are independent of thread count, batch size and
/// scheduling.
pub struct Sweep<S: Simulator> {
    /// RNG namespace; also names the experiment in outputs.
    pub experiment: &'static str,
    /// Base configuration; the sweep overrides the algorithm per cell.
    pub config: S::Config,
    pub algorithms: Vec<AlgorithmKind>,
    pub ns: Vec<u32>,
    pub trials: u32,
    /// Execution policy (threads / batch size / progress).
    pub exec: ExecPolicy,
}

impl<S: Simulator> Clone for Sweep<S> {
    fn clone(&self) -> Sweep<S> {
        Sweep {
            experiment: self.experiment,
            config: self.config.clone(),
            algorithms: self.algorithms.clone(),
            ns: self.ns.clone(),
            trials: self.trials,
            exec: self.exec,
        }
    }
}

impl<S: Simulator> std::fmt::Debug for Sweep<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("simulator", &S::NAME)
            .field("experiment", &self.experiment)
            .field("algorithms", &self.algorithms)
            .field("ns", &self.ns)
            .field("trials", &self.trials)
            .field("exec", &self.exec)
            .finish()
    }
}

impl<S: Simulator> Sweep<S> {
    /// Number of `(algorithm, n)` cells in the full grid — what
    /// [`CellRange::shard`] partitions.
    pub fn cell_count(&self) -> usize {
        self.algorithms.len() * self.ns.len()
    }

    /// Cells are keyed by `(algorithm, n)` grid position; a duplicate grid
    /// entry would silently split a cell's trials across two cells.
    fn validate_grid(&self) {
        for (i, a) in self.algorithms.iter().enumerate() {
            assert!(
                !self.algorithms[..i].contains(a),
                "duplicate algorithm {a} in sweep grid"
            );
        }
        for (i, n) in self.ns.iter().enumerate() {
            assert!(!self.ns[..i].contains(n), "duplicate n={n} in sweep grid");
        }
    }

    /// The streaming core: runs the grid with batched work claiming, maps
    /// each raw output inside the worker, and folds it into its cell's
    /// accumulator — still inside the worker. Nothing per-trial survives
    /// beyond what the accumulator retains.
    fn run_streamed<T, A, M, I>(&self, map: M, init: I) -> Vec<FoldedCell<A>>
    where
        A: Accumulator<T> + Send,
        M: Fn(S::Output) -> T + Sync,
        I: FnMut(AlgorithmKind, u32, u32) -> A,
    {
        self.run_streamed_core(map, init, None, None, None)
    }

    /// [`run_streamed`](Self::run_streamed), generalized along the two
    /// seams checkpoint/resume needs:
    ///
    /// * `missing` — a sparse work plan: only the listed
    ///   `(grid cell index, trials)` execute (the resume path). `None` runs
    ///   the dense grid, restricted by `ExecPolicy::cells` as before.
    ///   Per-trial RNG derivation is untouched either way, so a sparse run's
    ///   values are bit-identical to the same trials of a full run.
    /// * `monitor` — a snapshot thread that periodically clones the in-flight
    ///   accumulators (each under its own cell lock — workers keep claiming
    ///   batches) and hands them to the sink; one final snapshot is
    ///   guaranteed after the workers join.
    /// * `costs` — estimated per-*trial* cost of every cell of the **full**
    ///   grid (`algorithms × ns`, same order). Feeds scheduling only: claim
    ///   tapering and heaviest-cell-first ordering. Results are routed by
    ///   grid position and trial RNG streams derive from grid coordinates,
    ///   so any cost table — including a wrong one — leaves every output
    ///   bit unchanged.
    fn run_streamed_core<T, A, M, I>(
        &self,
        map: M,
        mut init: I,
        missing: Option<&[(usize, Vec<u32>)]>,
        monitor: Option<MonitorHook<'_, A>>,
        costs: Option<&[f64]>,
    ) -> Vec<FoldedCell<A>>
    where
        A: Accumulator<T> + Send,
        M: Fn(S::Output) -> T + Sync,
        I: FnMut(AlgorithmKind, u32, u32) -> A,
    {
        self.validate_grid();
        let tag = experiment_tag(self.experiment);
        let trials = self.trials as usize;
        let full_grid: Vec<(AlgorithmKind, u32)> = self
            .algorithms
            .iter()
            .flat_map(|&alg| self.ns.iter().map(move |&n| (alg, n)))
            .collect();
        if let Some(costs) = costs {
            assert!(
                costs.len() == full_grid.len(),
                "cost table has {} entries for a {}-cell grid",
                costs.len(),
                full_grid.len()
            );
        }
        // Junk estimates (NaN, ±∞, negatives) count as zero weight so the
        // heaviest-first comparator below stays a total order.
        let sane = |c: f64| if c.is_finite() && c > 0.0 { c } else { 0.0 };
        // Resolve the work plan: which cells exist, how a claimed work index
        // maps onto (cell, trial), and what each local cell's trials are
        // estimated to cost.
        type SparseItems = Option<Vec<(usize, u32)>>;
        let (grid, mut sparse, cell_costs): (
            Vec<(AlgorithmKind, u32)>,
            SparseItems,
            Option<Vec<f64>>,
        ) = match missing {
            None => {
                let mut grid = full_grid;
                let mut cell_costs =
                    costs.map(|c| c.iter().map(|&c| sane(c)).collect::<Vec<f64>>());
                if let Some(range) = self.exec.cells {
                    assert!(
                        range.lo <= range.hi && range.hi <= grid.len(),
                        "cell range [{}, {}) outside the {}-cell grid",
                        range.lo,
                        range.hi,
                        grid.len()
                    );
                    grid = grid[range.lo..range.hi].to_vec();
                    cell_costs = cell_costs.map(|c| c[range.lo..range.hi].to_vec());
                }
                (grid, None, cell_costs)
            }
            Some(missing) => {
                assert!(
                    self.exec.cells.is_none(),
                    "a sparse work plan already names its cells; drop ExecPolicy::cells"
                );
                let mut grid = Vec::with_capacity(missing.len());
                let mut items = Vec::new();
                for (local, (cell_index, cell_trials)) in missing.iter().enumerate() {
                    assert!(
                        *cell_index < full_grid.len(),
                        "missing-work cell {cell_index} outside the {}-cell grid",
                        full_grid.len()
                    );
                    grid.push(full_grid[*cell_index]);
                    for &trial in cell_trials {
                        assert!(
                            (trial as usize) < trials,
                            "missing-work trial {trial} outside 0..{trials}"
                        );
                        items.push((local, trial));
                    }
                }
                let cell_costs = costs.map(|c| {
                    missing
                        .iter()
                        .map(|(cell_index, _)| sane(c[*cell_index]))
                        .collect()
                });
                (grid, Some(items), cell_costs)
            }
        };
        // Execution order over local cells: identity under fixed batches
        // (`exec.batch` pinned) or without estimates; heaviest cells first
        // when tapering with a cost table, so the long-pole cells start
        // while plenty of light work remains to backfill the tail. Results
        // are index-routed, so the order is invisible in the output.
        let taper = self.exec.batch.is_none();
        let order: Vec<usize> = {
            let mut order: Vec<usize> = (0..grid.len()).collect();
            if taper {
                if let Some(cost) = &cell_costs {
                    let heaviest_first =
                        |a: f64, b: f64| b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal);
                    order.sort_by(|&a, &b| heaviest_first(cost[a], cost[b]));
                    if let Some(items) = &mut sparse {
                        items.sort_by(|a, b| heaviest_first(cost[a.0], cost[b.0]));
                    }
                }
            }
            order
        };
        let accumulators: Vec<Mutex<A>> = grid
            .iter()
            .map(|&(alg, n)| Mutex::new(init(alg, n, self.trials)))
            .collect();
        let total = match &sparse {
            None => grid.len() * trials,
            Some(items) => items.len(),
        };
        if total > 0 {
            // Cap the worker count at the machine's parallelism: results are
            // schedule-invariant, so workers beyond physical cores can only
            // add wakeup and context-switch overhead, never wall-clock.
            let threads = self
                .exec
                .threads
                .unwrap_or_else(default_threads)
                .min(default_threads());
            // Tapered claims need a per-work-item cost prefix in *execution*
            // order; without estimates every item weighs the same and the
            // taper degenerates to pure remaining/workers sizing.
            let schedule: Option<TaperSchedule> = taper.then(|| match (&sparse, &cell_costs) {
                (None, Some(cost)) => {
                    let mut item_costs = Vec::with_capacity(total);
                    for &cell in &order {
                        item_costs.extend(std::iter::repeat_n(cost[cell], trials));
                    }
                    TaperSchedule::new(&item_costs)
                }
                (Some(items), Some(cost)) => {
                    let item_costs: Vec<f64> = items.iter().map(|&(cell, _)| cost[cell]).collect();
                    TaperSchedule::new(&item_costs)
                }
                (_, None) => TaperSchedule::uniform(total),
            });
            let progress = Progress::new(total, self.exec.progress);
            let base = self.config.clone();
            // The dense work item for global index g is (order[g / trials],
            // trial g % trials) — computed, never stored; sparse plans look
            // the pair up. Each worker owns one scratch arena for its whole
            // share of the sweep.
            let work_item = |range: std::ops::Range<usize>, scratch: &mut S::Scratch| {
                for g in range {
                    let (cell_index, trial) = match &sparse {
                        None => (order[g / trials], (g % trials) as u32),
                        Some(items) => items[g],
                    };
                    let (alg, n) = grid[cell_index];
                    let config = S::with_algorithm(&base, alg);
                    let mut rng = trial_rng(tag, alg, n, trial);
                    let value = map(S::run_with(&config, n, &mut rng, scratch));
                    lock(&accumulators[cell_index]).record(trial, value);
                    progress.tick();
                }
            };
            let run_workers = || match &schedule {
                Some(sched) => parallel_for_tapered(sched, threads, S::Scratch::default, work_item),
                None => parallel_for_batches(
                    total,
                    threads,
                    self.exec
                        .batch
                        .expect("fixed-batch path requires exec.batch"),
                    S::Scratch::default,
                    work_item,
                ),
            };
            match &monitor {
                None => run_workers(),
                Some(hook) => {
                    let stop = AtomicBool::new(false);
                    let started = Instant::now();
                    std::thread::scope(|scope| {
                        scope.spawn(|| {
                            let mut last_snap = Instant::now();
                            let mut last_done = 0usize;
                            loop {
                                // Read the stop flag *before* the counter:
                                // if workers finish in between, the final
                                // pass still runs with stopping == false and
                                // the next iteration takes the guaranteed
                                // finished snapshot.
                                let stopping = stop.load(Ordering::Acquire);
                                let done = progress.completed();
                                if stopping
                                    || hook.cadence.due(last_snap.elapsed(), done - last_done)
                                {
                                    let cells = grid
                                        .iter()
                                        .zip(&accumulators)
                                        .map(|(&(algorithm, n), acc)| FoldedCell {
                                            algorithm,
                                            n,
                                            acc: (hook.clone_acc)(&lock(acc)),
                                        })
                                        .collect();
                                    hook.sink.snapshot(SweepSnapshot {
                                        cells,
                                        completed_trials: done,
                                        total_trials: total,
                                        elapsed: started.elapsed(),
                                        workers: threads,
                                        finished: stopping,
                                    });
                                    last_snap = Instant::now();
                                    last_done = done;
                                }
                                if stopping {
                                    break;
                                }
                                std::thread::sleep(SNAPSHOT_POLL);
                            }
                        });
                        run_workers();
                        stop.store(true, Ordering::Release);
                    });
                }
            }
            progress.finish();
        }
        grid.into_iter()
            .zip(accumulators)
            .map(|((algorithm, n), acc)| FoldedCell {
                algorithm,
                n,
                acc: acc.into_inner().unwrap_or_else(PoisonError::into_inner),
            })
            .collect()
    }

    /// Runs the grid, folding each *raw* output into a per-cell accumulator
    /// built by `init(algorithm, n, trials)`.
    pub fn run_fold_raw<A, I>(&self, init: I) -> Vec<FoldedCell<A>>
    where
        A: Accumulator<S::Output> + Send,
        I: FnMut(AlgorithmKind, u32, u32) -> A,
    {
        self.run_streamed(|output| output, init)
    }

    /// Runs the grid, mapping each raw output inside the worker thread
    /// (large outputs are reduced before being collected).
    pub fn run_mapped<T, F>(&self, map: F) -> Vec<Cell<T>>
    where
        T: Send,
        F: Fn(S::Output) -> T + Sync,
    {
        self.run_streamed(map, |_, _, trials| Slots::new(trials))
            .into_iter()
            .map(|cell| Cell {
                algorithm: cell.algorithm,
                n: cell.n,
                trials: cell.acc.into_vec(),
            })
            .collect()
    }

    /// Runs the grid, keeping each backend's raw output.
    pub fn run_raw(&self) -> Vec<Cell<S::Output>> {
        self.run_mapped(|output| output)
    }
}

impl<S: Simulator> Sweep<S>
where
    TrialSummary: From<S::Output>,
{
    /// Runs the grid and summarizes every trial.
    pub fn run(&self) -> Vec<SweepCell> {
        self.run_mapped(TrialSummary::from)
    }

    /// Runs the grid, folding each trial's [`TrialSummary`] into a per-cell
    /// accumulator built by `init(algorithm, n, trials)` — the streaming
    /// path every figure-facing aggregate rides.
    pub fn run_fold<A, I>(&self, init: I) -> Vec<FoldedCell<A>>
    where
        A: Accumulator<TrialSummary> + Send,
        I: FnMut(AlgorithmKind, u32, u32) -> A,
    {
        self.run_streamed(TrialSummary::from, init)
    }

    /// [`run_fold`](Self::run_fold) with the crash-safety seams attached:
    ///
    /// * `missing` — run only the listed `(grid cell index, trials)` instead
    ///   of the dense grid (the resume path; indices address the full
    ///   `algorithms × ns` grid and must not be combined with
    ///   `ExecPolicy::cells`). Returned cells are in plan order. Per-trial
    ///   values are bit-identical to the same trials of a full run.
    /// * `monitor` — a snapshot sink called on `cadence` from a dedicated
    ///   thread with clones of the in-flight accumulators, plus once more
    ///   (with `finished: true`) after the workers join. Snapshots are
    ///   read-only: results are unaffected by the monitor's presence.
    /// * `costs` — estimated per-trial cost of every full-grid cell (same
    ///   order as `algorithms × ns`), from the experiment's
    ///   [`CostModel`](crate::sched::CostModel). Scheduling-only: drives
    ///   claim tapering and heaviest-cell-first ordering; any table yields
    ///   bit-identical results.
    pub fn run_fold_monitored<A, I>(
        &self,
        init: I,
        missing: Option<&[(usize, Vec<u32>)]>,
        monitor: Option<(SnapshotCadence, &dyn SweepMonitor<A>)>,
        costs: Option<&[f64]>,
    ) -> Vec<FoldedCell<A>>
    where
        A: Accumulator<TrialSummary> + Clone + Send,
        I: FnMut(AlgorithmKind, u32, u32) -> A,
    {
        let hook = monitor.map(|(cadence, sink)| MonitorHook {
            cadence,
            sink,
            clone_acc: A::clone,
        });
        self.run_streamed_core(TrialSummary::from, init, missing, hook, costs)
    }
}

/// Position-addressed slots: the accumulator behind the collect-style API.
/// Arrival order cannot matter because trial `t` lands in slot `t` — which
/// also makes two disjoint partial fills mergeable without ambiguity.
#[derive(Debug, Clone, PartialEq)]
pub struct Slots<T> {
    slots: Vec<Option<T>>,
}

impl<T> Slots<T> {
    /// Slots awaiting `trials` recordings.
    pub fn new(trials: u32) -> Slots<T> {
        Slots {
            slots: (0..trials).map(|_| None).collect(),
        }
    }

    /// Number of recorded trials.
    pub fn filled(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// The complete trial-ordered values; panics if any trial is missing.
    pub fn into_vec(self) -> Vec<T> {
        self.slots
            .into_iter()
            .map(|slot| slot.expect("missing trial"))
            .collect()
    }
}

impl<T> Accumulator<T> for Slots<T> {
    fn record(&mut self, trial: u32, value: T) {
        let slot = &mut self.slots[trial as usize];
        assert!(slot.is_none(), "trial {trial} recorded twice");
        *slot = Some(value);
    }
}

impl<T> MergeableAccumulator for Slots<T> {
    fn merge(&mut self, other: Self) {
        assert_eq!(
            self.slots.len(),
            other.slots.len(),
            "cannot merge slots of different trial counts"
        );
        for (trial, (slot, value)) in self.slots.iter_mut().zip(other.slots).enumerate() {
            if let Some(value) = value {
                assert!(slot.is_none(), "trial {trial} recorded in both operands");
                *slot = Some(value);
            }
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Looks up one cell in a collect-style sweep result.
pub fn cell<T>(cells: &[Cell<T>], alg: AlgorithmKind, n: u32) -> &Cell<T> {
    cells
        .iter()
        .find(|c| c.algorithm == alg && c.n == n)
        .unwrap_or_else(|| panic!("no cell for {alg} at n={n}"))
}

/// Looks up one cell in a folded sweep result.
pub fn folded<A>(cells: &[FoldedCell<A>], alg: AlgorithmKind, n: u32) -> &FoldedCell<A> {
    cells
        .iter()
        .find(|c| c.algorithm == alg && c.n == n)
        .unwrap_or_else(|| panic!("no cell for {alg} at n={n}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::metrics::BatchMetrics;
    use rand::Rng;

    /// A deterministic toy backend: "runs" a trial by hashing its inputs.
    struct ToySim;

    #[derive(Debug, Clone, Copy)]
    struct ToyConfig {
        algorithm: AlgorithmKind,
        scale: u64,
    }

    impl Simulator for ToySim {
        type Config = ToyConfig;
        type Output = BatchMetrics;
        /// Trials-served counter: proves the engine hands one arena to each
        /// worker and reuses it across that worker's whole share.
        type Scratch = u64;
        const NAME: &'static str = "toy";

        fn algorithm(config: &ToyConfig) -> AlgorithmKind {
            config.algorithm
        }

        fn with_algorithm(config: &ToyConfig, algorithm: AlgorithmKind) -> ToyConfig {
            ToyConfig {
                algorithm,
                ..*config
            }
        }

        fn run_with(
            config: &ToyConfig,
            n: u32,
            rng: &mut SmallRng,
            scratch: &mut u64,
        ) -> BatchMetrics {
            *scratch += 1;
            BatchMetrics {
                n,
                successes: n,
                cw_slots: config.scale * rng.gen_range(1u64..100),
                ..BatchMetrics::default()
            }
        }
    }

    fn toy_sweep(exec: ExecPolicy) -> Sweep<ToySim> {
        Sweep::<ToySim> {
            experiment: "engine-test",
            config: ToyConfig {
                algorithm: AlgorithmKind::Beb,
                scale: 3,
            },
            algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
            ns: vec![5, 10, 20],
            trials: 4,
            exec,
        }
    }

    /// Order-independent fold: exact count and integer sum of cw_slots.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    struct CwSum {
        count: u32,
        slots: u64,
    }

    impl Accumulator<TrialSummary> for CwSum {
        fn record(&mut self, _trial: u32, value: TrialSummary) {
            self.count += 1;
            self.slots += value.cw_slots as u64;
        }
    }

    #[test]
    fn grid_is_complete_and_cell_lookup_works() {
        let cells = toy_sweep(ExecPolicy::threads(2)).run();
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().all(|c| c.trials.len() == 4));
        assert_eq!(cell(&cells, AlgorithmKind::Sawtooth, 20).n, 20);
    }

    #[test]
    fn results_are_independent_of_thread_count_and_batch_size() {
        let golden = toy_sweep(ExecPolicy::threads(1).with_batch(1)).run();
        for threads in [1usize, 7] {
            for batch in [1usize, 5, 1024] {
                let got = toy_sweep(ExecPolicy::threads(threads).with_batch(batch)).run();
                assert_eq!(
                    golden, got,
                    "threads={threads} batch={batch} changed results"
                );
            }
        }
    }

    #[test]
    fn run_fold_agrees_with_run() {
        let cells = toy_sweep(ExecPolicy::threads(2)).run();
        let folded_cells =
            toy_sweep(ExecPolicy::threads(7).with_batch(3)).run_fold(|_, _, _| CwSum::default());
        assert_eq!(cells.len(), folded_cells.len());
        for (c, f) in cells.iter().zip(&folded_cells) {
            assert_eq!((c.algorithm, c.n), (f.algorithm, f.n));
            let expect = CwSum {
                count: c.trials.len() as u32,
                slots: c.trials.iter().map(|t| t.cw_slots as u64).sum(),
            };
            assert_eq!(f.acc, expect, "fold diverged at {}/{}", c.algorithm, c.n);
        }
        assert_eq!(folded(&folded_cells, AlgorithmKind::Beb, 10).n, 10);
    }

    #[test]
    fn sparse_plan_reproduces_the_dense_trials() {
        // Split the toy grid's work into two disjoint sparse plans; together
        // they must reproduce the dense fold exactly (same per-trial RNG),
        // and each plan alone only touches its listed cells/trials.
        let dense = toy_sweep(ExecPolicy::threads(2)).run_fold(|_, _, _| CwSum::default());
        let first: Vec<(usize, Vec<u32>)> = vec![(0, vec![0, 2]), (3, vec![1])];
        let rest: Vec<(usize, Vec<u32>)> = (0..6)
            .map(|cell| {
                let done: &[u32] = match cell {
                    0 => &[0, 2],
                    3 => &[1],
                    _ => &[],
                };
                (cell, (0..4).filter(|t| !done.contains(t)).collect())
            })
            .collect();
        let mut merged = vec![CwSum::default(); 6];
        for plan in [&first, &rest] {
            let cells = toy_sweep(ExecPolicy::threads(3).with_batch(2)).run_fold_monitored(
                |_, _, _| CwSum::default(),
                Some(plan),
                None,
                None,
            );
            assert_eq!(cells.len(), plan.len());
            for ((cell_index, trials), cell) in plan.iter().zip(&cells) {
                assert_eq!(
                    (cell.algorithm, cell.n),
                    (dense[*cell_index].algorithm, dense[*cell_index].n)
                );
                assert_eq!(cell.acc.count as usize, trials.len());
                merged[*cell_index].count += cell.acc.count;
                merged[*cell_index].slots += cell.acc.slots;
            }
        }
        assert_eq!(
            merged,
            dense.iter().map(|c| c.acc).collect::<Vec<_>>(),
            "two disjoint sparse plans did not reassemble the dense fold"
        );
    }

    #[test]
    fn cost_tables_reorder_claims_but_never_results() {
        // Skewed estimates with junk entries mixed in: heaviest-first order
        // and tapered claim sizes change, the fold must not — across thread
        // counts, with and without the cost table.
        let golden =
            toy_sweep(ExecPolicy::threads(1).with_batch(1)).run_fold(|_, _, _| CwSum::default());
        let costs = [f64::NAN, 0.0, 5.0, 1e9, 1.0, -2.0];
        for threads in [1usize, 2, 8] {
            let costed = toy_sweep(ExecPolicy::threads(threads)).run_fold_monitored(
                |_, _, _| CwSum::default(),
                None,
                None,
                Some(&costs),
            );
            assert_eq!(golden, costed, "threads={threads} with costs");
            let uncosted = toy_sweep(ExecPolicy::threads(threads)).run_fold_monitored(
                |_, _, _| CwSum::default(),
                None,
                None,
                None,
            );
            assert_eq!(golden, uncosted, "threads={threads} without costs");
        }
    }

    #[test]
    fn cost_table_respects_cell_ranges_and_sparse_plans() {
        let dense = toy_sweep(ExecPolicy::threads(1)).run_fold(|_, _, _| CwSum::default());
        let costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        // A cell-range run slices the full-grid cost table along with the
        // grid.
        let mut exec = ExecPolicy::threads(2);
        exec.cells = Some(CellRange { lo: 2, hi: 5 });
        let ranged = toy_sweep(exec).run_fold_monitored(
            |_, _, _| CwSum::default(),
            None,
            None,
            Some(&costs),
        );
        assert_eq!(ranged.len(), 3);
        for (got, want) in ranged.iter().zip(&dense[2..5]) {
            assert_eq!(got, want, "cell range + costs changed a cell");
        }
        // A sparse plan draws each item's weight from its full-grid cell.
        let plan: Vec<(usize, Vec<u32>)> = vec![(1, vec![0, 3]), (5, vec![2]), (0, vec![1])];
        let sparse = toy_sweep(ExecPolicy::threads(2)).run_fold_monitored(
            |_, _, _| CwSum::default(),
            Some(&plan),
            None,
            Some(&costs),
        );
        let plain = toy_sweep(ExecPolicy::threads(2)).run_fold_monitored(
            |_, _, _| CwSum::default(),
            Some(&plan),
            None,
            None,
        );
        assert_eq!(sparse, plain, "costs changed a sparse plan's results");
    }

    #[test]
    #[should_panic(expected = "cost table has 2 entries")]
    fn wrong_cost_table_length_panics() {
        let costs = [1.0, 2.0];
        let _ = toy_sweep(ExecPolicy::threads(1)).run_fold_monitored(
            |_, _, _| CwSum::default(),
            None,
            None,
            Some(&costs),
        );
    }

    #[test]
    fn weighted_shards_tile_the_grid() {
        let weights = [3.0, 0.5, f64::NAN, 8.0, 1.0, 0.0, 2.5, 4.0, -1.0, 6.0];
        for of in [1usize, 2, 3, 4, 7, 10, 13] {
            let mut next = 0;
            for index in 0..of {
                let shard = CellRange::shard_weighted(&weights, index, of);
                assert_eq!(shard.lo, next, "shard {index}/{of} left a gap");
                assert!(shard.hi >= shard.lo);
                next = shard.hi;
            }
            assert_eq!(next, weights.len(), "shards {of} did not cover the grid");
        }
    }

    #[test]
    fn weighted_shards_balance_work_better_than_counts() {
        // One heavy head cell: the count split hands shard 0 the head plus
        // half the light cells; the weighted split cuts right after it.
        let weights = [8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let cost = |r: CellRange| weights[r.lo..r.hi].iter().sum::<f64>();
        let weighted_max = (0..2)
            .map(|i| cost(CellRange::shard_weighted(&weights, i, 2)))
            .fold(0.0f64, f64::max);
        let count_max = (0..2)
            .map(|i| cost(CellRange::shard(weights.len(), i, 2)))
            .fold(0.0f64, f64::max);
        assert!(
            weighted_max < count_max,
            "weighted split ({weighted_max}) should beat count split ({count_max})"
        );
        // Trailing zero-weight cells still land in the last shard.
        let tail_zeros = [5.0, 5.0, 0.0, 0.0];
        let last = CellRange::shard_weighted(&tail_zeros, 1, 2);
        assert_eq!((last.lo, last.hi), (1, 4));
    }

    #[test]
    fn degenerate_weights_fall_back_to_count_shards() {
        for weights in [vec![0.0; 5], vec![f64::NAN; 5], vec![-3.0; 5], vec![]] {
            for of in [1usize, 2, 3] {
                for index in 0..of {
                    assert_eq!(
                        CellRange::shard_weighted(&weights, index, of),
                        CellRange::shard(weights.len(), index, of),
                        "weights {weights:?} shard {index}/{of}"
                    );
                }
            }
        }
        // Uniform weights coincide with the count-balanced partition too.
        for index in 0..3 {
            assert_eq!(
                CellRange::shard_weighted(&[2.0; 9], index, 3),
                CellRange::shard(9, index, 3)
            );
        }
    }

    /// A partition must tile its plan exactly: same cells, same trials,
    /// same order, no overlap. Flattens leases back into plan shape.
    fn flatten(leases: &[Vec<TrialRange>]) -> Vec<(usize, u32)> {
        leases
            .iter()
            .flatten()
            .flat_map(|r| (r.lo..r.hi).map(move |t| (r.cell, t)))
            .collect()
    }

    fn plan_trials(plan: &[(usize, Vec<u32>)]) -> Vec<(usize, u32)> {
        plan.iter()
            .flat_map(|(cell, ts)| ts.iter().map(move |&t| (*cell, t)))
            .collect()
    }

    #[test]
    fn trial_partition_tiles_the_plan_exactly() {
        let plan = vec![(0usize, vec![0u32, 1, 2]), (2, vec![1, 3]), (5, vec![0])];
        let costs = [1.0, 1.0, 4.0, 1.0, 1.0, 2.0];
        for target in 1..=8 {
            let leases = TrialRange::partition(&plan, &costs, target);
            assert!(leases.len() <= target, "target {target}");
            assert!(leases.iter().all(|l| !l.is_empty()));
            assert_eq!(flatten(&leases), plan_trials(&plan), "target {target}");
        }
        // target 1 is a single lease covering everything, with the
        // consecutive trials of cell 0 fused into one range.
        let one = TrialRange::partition(&plan, &costs, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(
            one[0][0],
            TrialRange {
                cell: 0,
                lo: 0,
                hi: 3
            }
        );
    }

    #[test]
    fn trial_partition_splits_heavy_cells_and_coalesces_light_ones() {
        // One cell carries ~94% of the work: it must spread over most of
        // the leases while the light cells share the remainder.
        let plan = vec![
            (0usize, (0..64).collect::<Vec<u32>>()),
            (1, vec![0, 1]),
            (2, vec![0, 1]),
        ];
        let costs = [16.0, 1.0, 1.0];
        let leases = TrialRange::partition(&plan, &costs, 4);
        assert_eq!(leases.len(), 4);
        let heavy_leases = leases
            .iter()
            .filter(|l| l.iter().any(|r| r.cell == 0))
            .count();
        assert!(
            heavy_leases >= 3,
            "heavy cell should span most leases, spanned {heavy_leases}"
        );
        // Estimated cost per lease stays near total/target.
        let cost_of =
            |l: &Vec<TrialRange>| -> f64 { l.iter().map(|r| costs[r.cell] * r.len() as f64).sum() };
        let total: f64 = leases.iter().map(cost_of).sum();
        let goal = total / 4.0;
        for l in &leases {
            assert!(
                cost_of(l) <= goal + costs[0],
                "lease cost {} exceeds goal {goal} by more than one heavy trial",
                cost_of(l)
            );
        }
        assert_eq!(flatten(&leases), plan_trials(&plan));
    }

    #[test]
    fn trial_partition_degrades_safely_on_junk_costs_and_empty_plans() {
        let plan = vec![(0usize, vec![0u32, 1]), (1, vec![0, 1])];
        // Junk costs count as one unit each: 4 trials over 2 leases = 2 + 2.
        for costs in [vec![f64::NAN, -1.0], vec![0.0, 0.0], vec![]] {
            let leases = TrialRange::partition(&plan, &costs, 2);
            assert_eq!(leases.len(), 2, "costs {costs:?}");
            assert_eq!(flatten(&leases).len(), 4);
            assert_eq!(leases[0].iter().map(TrialRange::len).sum::<usize>(), 2);
        }
        // An empty plan (or all-empty trial lists) yields no leases at all.
        assert!(TrialRange::partition(&[], &[1.0], 3).is_empty());
        assert!(TrialRange::partition(&[(0, vec![])], &[1.0], 3).is_empty());
        // More leases requested than trials available: every lease that
        // does come back holds at least one trial.
        let tiny = TrialRange::partition(&plan, &[1.0, 1.0], 16);
        assert!(tiny.len() <= 4);
        assert_eq!(flatten(&tiny), plan_trials(&plan));
    }

    /// Counts snapshots and checks the final one is complete and flagged.
    #[derive(Default)]
    struct RecordingMonitor {
        snaps: Mutex<Vec<(usize, usize, bool)>>,
    }

    impl SweepMonitor<CwSum> for RecordingMonitor {
        fn snapshot(&self, snap: SweepSnapshot<CwSum>) {
            let folded: u32 = snap.cells.iter().map(|c| c.acc.count).sum();
            assert!(
                folded as usize <= snap.completed_trials,
                "snapshot saw more folded trials than the counter reported"
            );
            lock(&self.snaps).push((snap.completed_trials, snap.total_trials, snap.finished));
        }
    }

    #[test]
    fn monitored_run_takes_a_final_snapshot_and_leaves_results_unchanged() {
        let plain = toy_sweep(ExecPolicy::threads(2)).run_fold(|_, _, _| CwSum::default());
        let monitor = RecordingMonitor::default();
        let monitored = toy_sweep(ExecPolicy::threads(2)).run_fold_monitored(
            |_, _, _| CwSum::default(),
            None,
            Some((SnapshotCadence::trials(1), &monitor)),
            None,
        );
        assert_eq!(plain, monitored, "attaching a monitor changed the fold");
        let snaps = monitor.snaps.into_inner().unwrap();
        assert!(!snaps.is_empty());
        let &(done, total, finished) = snaps.last().unwrap();
        assert!(finished, "last snapshot must be flagged finished");
        assert_eq!((done, total), (24, 24));
        assert!(
            snaps[..snaps.len() - 1].iter().all(|&(_, _, f)| !f),
            "only the last snapshot may be flagged finished"
        );
    }

    #[test]
    fn fold_init_sees_cell_coordinates() {
        let folded_cells = toy_sweep(ExecPolicy::threads(1)).run_fold_raw(|alg, n, trials| {
            assert_eq!(trials, 4);
            assert!(n == 5 || n == 10 || n == 20);
            assert!(alg == AlgorithmKind::Beb || alg == AlgorithmKind::Sawtooth);
            CountRaw(0)
        });
        assert!(folded_cells.iter().all(|c| c.acc.0 == 4));
    }

    struct CountRaw(u32);
    impl Accumulator<BatchMetrics> for CountRaw {
        fn record(&mut self, _trial: u32, _value: BatchMetrics) {
            self.0 += 1;
        }
    }

    #[test]
    fn run_raw_and_run_agree() {
        let raw = toy_sweep(ExecPolicy::threads(2)).run_raw();
        let summarized = toy_sweep(ExecPolicy::threads(2)).run();
        for (r, s) in raw.iter().zip(&summarized) {
            for (m, t) in r.trials.iter().zip(&s.trials) {
                assert_eq!(TrialSummary::from_metrics(m), *t);
            }
        }
    }

    #[test]
    fn run_trial_matches_the_sweep_stream() {
        // The single-trial entry point must hit the same RNG stream the
        // sweep derives, so bench trials and sweep trials are interchangeable.
        let sweep = toy_sweep(ExecPolicy::threads(1));
        let cells = sweep.run_raw();
        let config = ToyConfig {
            algorithm: AlgorithmKind::Beb,
            scale: 3,
        };
        let lone = run_trial::<ToySim>("engine-test", &config, 10, 2);
        assert_eq!(cell(&cells, AlgorithmKind::Beb, 10).trials[2], lone);
    }

    #[test]
    fn zero_trials_yields_empty_cells() {
        let mut sweep = toy_sweep(ExecPolicy::threads(2));
        sweep.trials = 0;
        let cells = sweep.run();
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().all(|c| c.trials.is_empty()));
    }

    #[test]
    #[should_panic(expected = "no cell")]
    fn missing_cell_panics() {
        let cells: Vec<SweepCell> = Vec::new();
        let _ = cell(&cells, AlgorithmKind::Beb, 10);
    }

    #[test]
    #[should_panic(expected = "duplicate n=10")]
    fn duplicate_grid_entries_are_rejected() {
        let mut sweep = toy_sweep(ExecPolicy::threads(1));
        sweep.ns = vec![10, 10];
        let _ = sweep.run();
    }

    #[test]
    #[should_panic(expected = "duplicate algorithm")]
    fn duplicate_algorithms_are_rejected() {
        let mut sweep = toy_sweep(ExecPolicy::threads(1));
        sweep.algorithms = vec![AlgorithmKind::Beb, AlgorithmKind::Beb];
        let _ = sweep.run();
    }

    /// `Default` bumps a global counter, so a test can count how many
    /// arenas the engine actually builds.
    struct CountedScratch;
    static SCRATCH_BUILDS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    impl Default for CountedScratch {
        fn default() -> CountedScratch {
            SCRATCH_BUILDS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            CountedScratch
        }
    }

    struct ScratchySim;

    impl Simulator for ScratchySim {
        type Config = ToyConfig;
        type Output = BatchMetrics;
        type Scratch = CountedScratch;
        const NAME: &'static str = "scratchy";

        fn algorithm(config: &ToyConfig) -> AlgorithmKind {
            config.algorithm
        }

        fn with_algorithm(config: &ToyConfig, algorithm: AlgorithmKind) -> ToyConfig {
            ToyConfig {
                algorithm,
                ..*config
            }
        }

        fn run_with(
            config: &ToyConfig,
            n: u32,
            rng: &mut SmallRng,
            _scratch: &mut CountedScratch,
        ) -> BatchMetrics {
            ToySim::run(config, n, rng)
        }
    }

    #[test]
    fn sequential_sweep_builds_exactly_one_scratch_arena() {
        let sweep = Sweep::<ScratchySim> {
            experiment: "engine-scratch",
            config: ToyConfig {
                algorithm: AlgorithmKind::Beb,
                scale: 1,
            },
            algorithms: vec![AlgorithmKind::Beb],
            ns: vec![5, 10],
            trials: 16,
            exec: ExecPolicy::threads(1),
        };
        let before = SCRATCH_BUILDS.load(std::sync::atomic::Ordering::SeqCst);
        let cells = sweep.run();
        let built = SCRATCH_BUILDS.load(std::sync::atomic::Ordering::SeqCst) - before;
        assert_eq!(cells.len(), 2);
        assert_eq!(built, 1, "32 sequential trials must share one arena");
    }

    #[test]
    fn cell_range_runs_are_slices_of_the_full_grid() {
        let full = toy_sweep(ExecPolicy::threads(2)).run();
        let cells = full.len();
        for of in [1usize, 2, 3, 7] {
            let mut pieces: Vec<SweepCell> = Vec::new();
            for index in 0..of {
                let range = CellRange::shard(cells, index, of);
                let exec = ExecPolicy::threads(2).with_batch(3).with_cells(range);
                let part = toy_sweep(exec).run();
                assert_eq!(part.len(), range.len());
                pieces.extend(part);
            }
            assert_eq!(pieces, full, "sharding {of} ways changed results");
        }
    }

    #[test]
    fn shard_ranges_tile_the_grid_exactly() {
        for cells in [0usize, 1, 5, 6, 7, 100] {
            for of in [1usize, 2, 3, 7, 13] {
                let mut covered = 0;
                for index in 0..of {
                    let range = CellRange::shard(cells, index, of);
                    assert_eq!(range.lo, covered, "gap or overlap at shard {index}/{of}");
                    covered = range.hi;
                }
                assert_eq!(covered, cells, "shards of {cells} cells do not tile");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_bounds_cell_range_panics() {
        let exec = ExecPolicy::threads(1).with_cells(CellRange { lo: 0, hi: 99 });
        let _ = toy_sweep(exec).run();
    }

    #[test]
    fn slots_merge_disjoint_partial_fills() {
        let mut a: Slots<u32> = Slots::new(4);
        let mut b: Slots<u32> = Slots::new(4);
        a.record(0, 10);
        a.record(2, 30);
        b.record(1, 20);
        b.record(3, 40);
        assert_eq!(a.filled(), 2);
        a.merge(b);
        assert_eq!(a.filled(), 4);
        assert_eq!(a.into_vec(), vec![10, 20, 30, 40]);
    }

    #[test]
    #[should_panic(expected = "recorded in both")]
    fn slots_merge_rejects_overlap() {
        let mut a: Slots<u32> = Slots::new(2);
        let mut b: Slots<u32> = Slots::new(2);
        a.record(0, 1);
        b.record(0, 2);
        a.merge(b);
    }

    #[test]
    #[should_panic(expected = "different trial counts")]
    fn slots_merge_rejects_shape_mismatch() {
        let mut a: Slots<u32> = Slots::new(2);
        a.merge(Slots::new(3));
    }

    #[test]
    fn zero_threads_is_clamped_to_sequential() {
        let cells = toy_sweep(ExecPolicy::threads(0)).run();
        assert_eq!(cells, toy_sweep(ExecPolicy::threads(1)).run());
    }
}
