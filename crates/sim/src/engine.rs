//! The generic sweep engine: one [`Simulator`] trait, one [`Sweep`].
//!
//! Before this module existed, every execution backend (the abstract
//! windowed simulator, the 802.11g MAC simulator) carried its own
//! near-identical sweep struct, and many figures hand-rolled their own trial
//! loops on top. The engine collapses all of that into:
//!
//! * [`Simulator`] — how to run one trial of a backend: an associated
//!   `Config`, an associated raw `Output`, a pure
//!   `run(config, n, rng) -> Output` function, and `summarize_with`, the
//!   trial reduced to a [`TrialSummary`] (a backend may tally it directly).
//! * [`run_trial`] — one trial with the canonical
//!   `(experiment tag, algorithm, n, trial)` RNG derivation. Every trial in
//!   the repository — sweeps, figures, tests — goes through this
//!   derivation, so any number anywhere is reproducible in isolation.
//! * [`Sweep`] — the Cartesian `(algorithm × n × trial)` grid, executed on
//!   the tapered deterministic runner under an [`ExecPolicy`] through its
//!   one entry point, [`Sweep::run_fold`], with [`SweepHooks`] selecting
//!   the work plan and attaching a monitor and a cost table.
//!
//! The engine *streams*: work items are generated on the fly from a single
//! cursor (never materialized as a grid `Vec`), workers claim contiguous
//! runs of trials, and each trial's result is **folded into a per-cell
//! [`Accumulator`] inside the worker**. A figure that only needs two metrics
//! of a million-trial sweep retains two `f64`s per trial — not a
//! `TrialSummary` — which is what lets the abstract sweeps reach the paper's
//! full n = 10⁵ grid (and 10⁶) in one process. A caller that wants every
//! trial's value folds into position-addressed [`Slots`], so collecting and
//! folding are the same path, bit-identical across thread counts and claim
//! schedules.
//!
//! A backend plugs in by implementing `Simulator`; nothing else in the
//! experiment layer changes. This is the seam where additional channel
//! models (e.g. the noisy/corrupted-slot model of arXiv:2408.11275) slot in.

use crate::monitor::{SnapshotCadence, SweepMonitor, SweepSnapshot};
use crate::parallel::{parallel_for_tapered, TaperSchedule};
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

/// One execution backend: everything [`Sweep`] needs to run trials of it.
///
/// Implementations are zero-sized entry points (trial state lives inside
/// `run_with`'s scratch arena), so a `Sweep<S>` is fully described by its
/// config and grid.
pub trait Simulator {
    /// Full per-trial configuration, including the algorithm under test.
    type Config: Clone + Send + Sync;
    /// Raw per-trial output. [`Sweep::run_fold`] folds either it or a
    /// [`TrialSummary`] (for backends whose output converts to one) — see
    /// [`TrialValue`].
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

    /// One trial reduced to its [`TrialSummary`]: what every summary fold of
    /// a sweep runs. The default converts [`run_with`](Self::run_with)'s
    /// output; a backend may override it to tally the summary directly, but
    /// the result must equal that conversion bit for bit, from the same RNG
    /// stream.
    fn summarize_with(
        config: &Self::Config,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut Self::Scratch,
    ) -> TrialSummary
    where
        Self::Output: Into<TrialSummary>,
    {
        Self::run_with(config, n, rng, scratch).into()
    }
}

/// What [`Sweep::run_fold`] can fold a trial of `S` as, and how to produce
/// it: a [`TrialSummary`] through [`Simulator::summarize_with`] (for any
/// backend whose output converts to one), or the backend's raw `Output`
/// through [`Simulator::run_with`] (one
/// [`raw_trial_value!`](crate::raw_trial_value) line per backend).
pub trait TrialValue<S: Simulator>: Sized {
    /// One trial of `n` stations in this form.
    fn run_with(config: &S::Config, n: u32, rng: &mut SmallRng, scratch: &mut S::Scratch) -> Self;
}

impl<S: Simulator> TrialValue<S> for TrialSummary
where
    S::Output: Into<TrialSummary>,
{
    fn run_with(
        config: &S::Config,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut S::Scratch,
    ) -> TrialSummary {
        S::summarize_with(config, n, rng, scratch)
    }
}

/// Implements [`TrialValue`] for each listed backend's raw `Output`, so a
/// sweep can fold (and [`Slots`] can keep) the untouched output.
#[macro_export]
macro_rules! raw_trial_value {
    ($($sim:ty),+ $(,)?) => {$(
        impl $crate::engine::TrialValue<$sim> for <$sim as $crate::engine::Simulator>::Output {
            fn run_with(
                config: &<$sim as $crate::engine::Simulator>::Config,
                n: u32,
                rng: &mut ::rand::rngs::SmallRng,
                scratch: &mut <$sim as $crate::engine::Simulator>::Scratch,
            ) -> Self {
                <$sim as $crate::engine::Simulator>::run_with(config, n, rng, scratch)
            }
        }
    )+};
}

/// Runs a single trial with the canonical RNG derivation.
///
/// This is the one place where `(experiment, algorithm, n, trial)` turns
/// into a generator; figures, sweeps and tests all share it.
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
/// and claim schedules, the final state must not depend on arrival order: either
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

/// How a sweep executes: worker threads and whether to report progress.
/// Purely a performance knob — results are identical for every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Worker threads (`None` = all available, `Some(0|1)` = sequential).
    /// The engine caps the effective count at the machine's available
    /// parallelism — oversubscribed workers cost context switches without
    /// buying wall-clock, and results never depend on the worker count.
    pub threads: Option<usize>,
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
}

/// What one [`Sweep::run_fold`] call runs and what it carries along: the
/// work plan (the whole grid, a cell `range`, or a sparse `missing` trial
/// list), a snapshot monitor, and the cost table claims are shaped by. No
/// seam changes what any trial computes — per-trial RNG streams derive from
/// grid coordinates alone and results are routed by grid position — so a
/// cell or trial is bit-identical whichever seams are attached.
pub struct SweepHooks<'a, A> {
    /// Run only the grid cells in `[lo, hi)` — the process-sharding seam:
    /// each shard folds its cell range, and the per-cell accumulator states
    /// merge back losslessly.
    pub range: Option<CellRange>,
    /// Run only the listed `(grid cell index, trials)` — the resume and
    /// lease seam. Indices address the full `algorithms × ns` grid; returned
    /// cells are in plan order. A plan names its own cells, so it cannot be
    /// combined with `range`.
    pub missing: Option<&'a [(usize, Vec<u32>)]>,
    /// A snapshot sink called on the cadence from a dedicated thread with
    /// clones of the in-flight accumulators (each taken under its cell lock
    /// while workers keep claiming), plus once more with `finished: true`
    /// after the workers join. Snapshots are read-only.
    pub monitor: Option<(SnapshotCadence, &'a dyn SweepMonitor<A>)>,
    /// Estimated per-trial cost of every cell of the **full** grid (same
    /// order as `algorithms × ns`), e.g. from a
    /// [`CostSpec`](crate::sched::CostSpec). Scheduling only: it sizes
    /// tapered claims and starts the heaviest cells first. Any table —
    /// including a wrong one — yields bit-identical results.
    pub costs: Option<&'a [f64]>,
}

impl<'a, A> SweepHooks<'a, A> {
    /// No seams attached: the plain full-grid run.
    pub fn none() -> SweepHooks<'a, A> {
        SweepHooks::default()
    }

    /// Only a cell-range restriction (the `repro shard` path).
    pub fn range(range: Option<CellRange>) -> SweepHooks<'a, A> {
        SweepHooks {
            range,
            ..SweepHooks::default()
        }
    }
}

impl<A> Default for SweepHooks<'_, A> {
    fn default() -> Self {
        SweepHooks {
            range: None,
            missing: None,
            monitor: None,
            costs: None,
        }
    }
}

impl<A> Clone for SweepHooks<'_, A> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<A> Copy for SweepHooks<'_, A> {}

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
/// so the sweep's numbers are independent of thread count and scheduling.
pub struct Sweep<S: Simulator> {
    /// RNG namespace; also names the experiment in outputs.
    pub experiment: &'static str,
    /// Base configuration; the sweep overrides the algorithm per cell.
    pub config: S::Config,
    pub algorithms: Vec<AlgorithmKind>,
    pub ns: Vec<u32>,
    pub trials: u32,
    /// Execution policy (threads / progress).
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

    /// Runs the grid — or the part of it `hooks` selects — producing each
    /// trial as `T` and folding it into its cell's accumulator, both inside
    /// the worker; the trial runs outside the cell lock. Accumulators are
    /// built by `init(algorithm, n, trials)`; nothing per-trial survives
    /// beyond what they retain. Cells come back in grid order (plan order
    /// for a `missing` plan).
    ///
    /// Fold into [`Slots`] to keep every trial's value, and pick `T` as the
    /// backend's raw `Output` or as [`TrialSummary`] (see [`TrialValue`]).
    pub fn run_fold<T, A, I>(&self, mut init: I, hooks: &SweepHooks<'_, A>) -> Vec<FoldedCell<A>>
    where
        T: TrialValue<S>,
        A: Accumulator<T> + Clone + Send,
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
        if let Some(costs) = hooks.costs {
            assert!(
                costs.len() == full_grid.len(),
                "cost table has {} entries for a {}-cell grid",
                costs.len(),
                full_grid.len()
            );
        }
        // Resolve the work plan: which full-grid cells this run folds (its
        // local cells, in order) and, for a sparse plan, the
        // `(local cell, trial)` work items.
        let (cells, mut sparse): (Vec<usize>, Option<Vec<(usize, u32)>>) = match hooks.missing {
            None => {
                let range = hooks.range.unwrap_or(CellRange {
                    lo: 0,
                    hi: full_grid.len(),
                });
                assert!(
                    range.lo <= range.hi && range.hi <= full_grid.len(),
                    "cell range [{}, {}) outside the {}-cell grid",
                    range.lo,
                    range.hi,
                    full_grid.len()
                );
                ((range.lo..range.hi).collect(), None)
            }
            Some(missing) => {
                assert!(
                    hooks.range.is_none(),
                    "a sparse work plan already names its cells; drop the cell range"
                );
                let mut items = Vec::new();
                for (local, (cell_index, cell_trials)) in missing.iter().enumerate() {
                    assert!(
                        *cell_index < full_grid.len(),
                        "missing-work cell {cell_index} outside the {}-cell grid",
                        full_grid.len()
                    );
                    for &trial in cell_trials {
                        assert!(
                            (trial as usize) < trials,
                            "missing-work trial {trial} outside 0..{trials}"
                        );
                        items.push((local, trial));
                    }
                }
                (missing.iter().map(|(cell, _)| *cell).collect(), Some(items))
            }
        };
        let grid: Vec<(AlgorithmKind, u32)> = cells.iter().map(|&cell| full_grid[cell]).collect();
        // Each local cell's estimated per-trial cost. Junk estimates (NaN,
        // ±∞, negatives) count as zero weight so the heaviest-first
        // comparator below stays a total order.
        let sane = |c: f64| if c.is_finite() && c > 0.0 { c } else { 0.0 };
        let cell_costs: Option<Vec<f64>> = hooks
            .costs
            .map(|costs| cells.iter().map(|&cell| sane(costs[cell])).collect());
        // Execution order over local cells: identity without estimates;
        // heaviest cells first with a cost table, so the long-pole cells
        // start while plenty of light work remains to backfill the tail.
        // Results are index-routed, so the order is invisible in the output.
        let mut order: Vec<usize> = (0..grid.len()).collect();
        if let Some(cost) = &cell_costs {
            let heaviest_first =
                |a: f64, b: f64| b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal);
            order.sort_by(|&a, &b| heaviest_first(cost[a], cost[b]));
            if let Some(items) = &mut sparse {
                items.sort_by(|a, b| heaviest_first(cost[a.0], cost[b.0]));
            }
        }
        let accumulators: Vec<Mutex<A>> = grid
            .iter()
            .map(|&(alg, n)| Mutex::new(init(alg, n, self.trials)))
            .collect();
        // The claim plan: one run per cell in execution order (consecutive
        // sparse items of one cell coalesce the same way); without
        // estimates every trial weighs the same.
        let unit = |cell: usize| cell_costs.as_ref().map_or(1.0, |c| c[cell]);
        let schedule = match &sparse {
            None => TaperSchedule::new(order.iter().map(|&cell| (unit(cell), trials))),
            Some(items) => TaperSchedule::new(items.iter().map(|&(cell, _)| (unit(cell), 1))),
        };
        let total = schedule.len();
        if total > 0 {
            // Cap the worker count at the machine's parallelism: results are
            // schedule-invariant, so workers beyond physical cores can only
            // add wakeup and context-switch overhead, never wall-clock.
            let threads = self
                .exec
                .threads
                .unwrap_or_else(default_threads)
                .min(default_threads());
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
                    let value = T::run_with(&config, n, &mut rng, scratch);
                    lock(&accumulators[cell_index]).record(trial, value);
                    progress.tick();
                }
            };
            let run_workers =
                || parallel_for_tapered(&schedule, threads, S::Scratch::default, work_item);
            match hooks.monitor {
                None => run_workers(),
                Some((cadence, sink)) => {
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
                                if stopping || cadence.due(last_snap.elapsed(), done - last_done) {
                                    let cells = grid
                                        .iter()
                                        .zip(&accumulators)
                                        .map(|(&(algorithm, n), acc)| FoldedCell {
                                            algorithm,
                                            n,
                                            acc: lock(acc).clone(),
                                        })
                                        .collect();
                                    sink.snapshot(SweepSnapshot {
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
}

/// Position-addressed slots: the accumulator a caller folds into to keep
/// every trial's value.
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

    crate::raw_trial_value!(ToySim, ScratchySim);

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

    /// Every trial's summary, per cell.
    type Summaries = Slots<TrialSummary>;

    fn summaries(
        sweep: &Sweep<ToySim>,
        hooks: &SweepHooks<'_, Summaries>,
    ) -> Vec<FoldedCell<Summaries>> {
        sweep.run_fold(|_, _, trials| Slots::new(trials), hooks)
    }

    fn cw_sums(sweep: &Sweep<ToySim>, hooks: &SweepHooks<'_, CwSum>) -> Vec<FoldedCell<CwSum>> {
        sweep.run_fold(|_, _, _| CwSum::default(), hooks)
    }

    /// Cost tables of every shape the scheduler must tolerate: none,
    /// ascending and descending `n log n`-style estimates, and junk.
    const COST_TABLES: [Option<[f64; 6]>; 4] = [
        None,
        Some([11.6, 33.2, 86.4, 11.6, 33.2, 86.4]),
        Some([86.4, 33.2, 11.6, 86.4, 33.2, 11.6]),
        Some([f64::NAN, -1.0, f64::INFINITY, 0.0, 5.0, f64::NEG_INFINITY]),
    ];

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
        let cells = summaries(&toy_sweep(ExecPolicy::threads(2)), &SweepHooks::none());
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().all(|c| c.acc.filled() == 4));
        assert_eq!(folded(&cells, AlgorithmKind::Sawtooth, 20).n, 20);
    }

    #[test]
    fn results_are_independent_of_thread_count_and_cost_table() {
        // The oracle: a plain trial loop in grid order, no scheduler.
        let sweep = toy_sweep(ExecPolicy::threads(1));
        let oracle: Vec<Vec<TrialSummary>> = sweep
            .algorithms
            .iter()
            .flat_map(|&alg| sweep.ns.iter().map(move |&n| (alg, n)))
            .map(|(alg, n)| {
                let config = ToySim::with_algorithm(&sweep.config, alg);
                (0..sweep.trials)
                    .map(|t| run_trial::<ToySim>(sweep.experiment, &config, n, t).into())
                    .collect()
            })
            .collect();
        for threads in [1usize, 2, 7] {
            for costs in &COST_TABLES {
                let hooks = SweepHooks {
                    costs: costs.as_ref().map(|c| &c[..]),
                    ..SweepHooks::none()
                };
                let got: Vec<Vec<TrialSummary>> =
                    summaries(&toy_sweep(ExecPolicy::threads(threads)), &hooks)
                        .into_iter()
                        .map(|c| c.acc.into_vec())
                        .collect();
                assert_eq!(
                    oracle, got,
                    "threads={threads} costs={costs:?} changed results"
                );
            }
        }
    }

    #[test]
    fn folding_agrees_with_collecting() {
        let cells = summaries(&toy_sweep(ExecPolicy::threads(2)), &SweepHooks::none());
        let folded_cells = cw_sums(&toy_sweep(ExecPolicy::threads(7)), &SweepHooks::none());
        assert_eq!(cells.len(), folded_cells.len());
        for (c, f) in cells.into_iter().zip(&folded_cells) {
            assert_eq!((c.algorithm, c.n), (f.algorithm, f.n));
            let trials = c.acc.into_vec();
            let expect = CwSum {
                count: trials.len() as u32,
                slots: trials.iter().map(|t| t.cw_slots as u64).sum(),
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
        let dense = cw_sums(&toy_sweep(ExecPolicy::threads(2)), &SweepHooks::none());
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
            let hooks = SweepHooks {
                missing: Some(plan),
                ..SweepHooks::none()
            };
            let cells = cw_sums(&toy_sweep(ExecPolicy::threads(3)), &hooks);
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
        let golden = cw_sums(&toy_sweep(ExecPolicy::threads(1)), &SweepHooks::none());
        for threads in [1usize, 2, 8] {
            for costs in &COST_TABLES {
                let hooks = SweepHooks {
                    costs: costs.as_ref().map(|c| &c[..]),
                    ..SweepHooks::none()
                };
                let got = cw_sums(&toy_sweep(ExecPolicy::threads(threads)), &hooks);
                assert_eq!(golden, got, "threads={threads} costs={costs:?}");
            }
        }
    }

    #[test]
    fn cost_table_respects_cell_ranges_and_sparse_plans() {
        let dense = cw_sums(&toy_sweep(ExecPolicy::threads(1)), &SweepHooks::none());
        let costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        // A cell-range run slices the full-grid cost table along with the
        // grid.
        let ranged = cw_sums(
            &toy_sweep(ExecPolicy::threads(2)),
            &SweepHooks {
                range: Some(CellRange { lo: 2, hi: 5 }),
                costs: Some(&costs),
                ..SweepHooks::none()
            },
        );
        assert_eq!(ranged.len(), 3);
        for (got, want) in ranged.iter().zip(&dense[2..5]) {
            assert_eq!(got, want, "cell range + costs changed a cell");
        }
        // A sparse plan draws each item's weight from its full-grid cell.
        let plan: Vec<(usize, Vec<u32>)> = vec![(1, vec![0, 3]), (5, vec![2]), (0, vec![1])];
        let sparse = |costs: Option<&[f64]>| {
            let hooks = SweepHooks {
                missing: Some(&plan),
                costs,
                ..SweepHooks::none()
            };
            cw_sums(&toy_sweep(ExecPolicy::threads(2)), &hooks)
        };
        assert_eq!(
            sparse(Some(&costs)),
            sparse(None),
            "costs changed a sparse plan's results"
        );
    }

    #[test]
    #[should_panic(expected = "cost table has 2 entries")]
    fn wrong_cost_table_length_panics() {
        let hooks = SweepHooks {
            costs: Some(&[1.0, 2.0]),
            ..SweepHooks::none()
        };
        let _ = cw_sums(&toy_sweep(ExecPolicy::threads(1)), &hooks);
    }

    #[test]
    #[should_panic(expected = "drop the cell range")]
    fn sparse_plan_with_a_cell_range_panics() {
        let plan: Vec<(usize, Vec<u32>)> = vec![(0, vec![0])];
        let hooks = SweepHooks {
            range: Some(CellRange { lo: 0, hi: 1 }),
            missing: Some(&plan),
            ..SweepHooks::none()
        };
        let _ = cw_sums(&toy_sweep(ExecPolicy::threads(1)), &hooks);
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
        let plain = cw_sums(&toy_sweep(ExecPolicy::threads(2)), &SweepHooks::none());
        let monitor = RecordingMonitor::default();
        let hooks = SweepHooks {
            monitor: Some((
                SnapshotCadence::trials(1),
                &monitor as &dyn SweepMonitor<CwSum>,
            )),
            ..SweepHooks::none()
        };
        let monitored = cw_sums(&toy_sweep(ExecPolicy::threads(2)), &hooks);
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
        let folded_cells = toy_sweep(ExecPolicy::threads(1)).run_fold(
            |alg, n, trials| {
                assert_eq!(trials, 4);
                assert!(n == 5 || n == 10 || n == 20);
                assert!(alg == AlgorithmKind::Beb || alg == AlgorithmKind::Sawtooth);
                CountRaw(0)
            },
            &SweepHooks::none(),
        );
        assert!(folded_cells.iter().all(|c| c.acc.0 == 4));
    }

    #[derive(Clone)]
    struct CountRaw(u32);
    impl Accumulator<BatchMetrics> for CountRaw {
        fn record(&mut self, _trial: u32, _value: BatchMetrics) {
            self.0 += 1;
        }
    }

    /// Every trial's raw output, per cell.
    fn raw(sweep: &Sweep<ToySim>) -> Vec<FoldedCell<Slots<BatchMetrics>>> {
        sweep.run_fold(|_, _, trials| Slots::new(trials), &SweepHooks::none())
    }

    #[test]
    fn raw_and_summarized_folds_agree() {
        let raw = raw(&toy_sweep(ExecPolicy::threads(2)));
        let summarized = summaries(&toy_sweep(ExecPolicy::threads(2)), &SweepHooks::none());
        for (r, s) in raw.into_iter().zip(summarized) {
            for (m, t) in r.acc.into_vec().iter().zip(s.acc.into_vec()) {
                assert_eq!(TrialSummary::from_metrics(m), t);
            }
        }
    }

    #[test]
    fn run_trial_matches_the_sweep_stream() {
        // The single-trial entry point must hit the same RNG stream the
        // sweep derives, so lone trials and sweep trials are interchangeable.
        let cells = raw(&toy_sweep(ExecPolicy::threads(1)));
        let config = ToyConfig {
            algorithm: AlgorithmKind::Beb,
            scale: 3,
        };
        let lone = run_trial::<ToySim>("engine-test", &config, 10, 2);
        let cell = folded(&cells, AlgorithmKind::Beb, 10).acc.clone();
        assert_eq!(cell.into_vec()[2], lone);
    }

    #[test]
    fn zero_trials_yields_empty_cells() {
        let mut sweep = toy_sweep(ExecPolicy::threads(2));
        sweep.trials = 0;
        let cells = summaries(&sweep, &SweepHooks::none());
        assert_eq!(cells.len(), 6);
        assert!(cells.into_iter().all(|c| c.acc.into_vec().is_empty()));
    }

    #[test]
    #[should_panic(expected = "no cell")]
    fn missing_cell_panics() {
        let cells: Vec<FoldedCell<CwSum>> = Vec::new();
        let _ = folded(&cells, AlgorithmKind::Beb, 10);
    }

    #[test]
    #[should_panic(expected = "duplicate n=10")]
    fn duplicate_grid_entries_are_rejected() {
        let mut sweep = toy_sweep(ExecPolicy::threads(1));
        sweep.ns = vec![10, 10];
        let _ = cw_sums(&sweep, &SweepHooks::none());
    }

    #[test]
    #[should_panic(expected = "duplicate algorithm")]
    fn duplicate_algorithms_are_rejected() {
        let mut sweep = toy_sweep(ExecPolicy::threads(1));
        sweep.algorithms = vec![AlgorithmKind::Beb, AlgorithmKind::Beb];
        let _ = cw_sums(&sweep, &SweepHooks::none());
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
        let cells = sweep.run_fold(|_, _, _| CountRaw(0), &SweepHooks::none());
        let built = SCRATCH_BUILDS.load(std::sync::atomic::Ordering::SeqCst) - before;
        assert_eq!(cells.len(), 2);
        assert_eq!(built, 1, "32 sequential trials must share one arena");
    }

    #[test]
    fn cell_range_runs_are_slices_of_the_full_grid() {
        let full = summaries(&toy_sweep(ExecPolicy::threads(2)), &SweepHooks::none());
        let cells = full.len();
        for of in [1usize, 2, 3, 7] {
            for costs in &COST_TABLES {
                let mut pieces = Vec::new();
                for index in 0..of {
                    let range = CellRange::shard(cells, index, of);
                    let hooks = SweepHooks {
                        range: Some(range),
                        costs: costs.as_ref().map(|c| &c[..]),
                        ..SweepHooks::none()
                    };
                    let part = summaries(&toy_sweep(ExecPolicy::threads(2)), &hooks);
                    assert_eq!(part.len(), range.len());
                    pieces.extend(part);
                }
                assert_eq!(pieces, full, "sharding {of} ways changed results");
            }
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
        let hooks = SweepHooks::range(Some(CellRange { lo: 0, hi: 99 }));
        let _ = cw_sums(&toy_sweep(ExecPolicy::threads(1)), &hooks);
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
        let cells = summaries(&toy_sweep(ExecPolicy::threads(0)), &SweepHooks::none());
        assert_eq!(
            cells,
            summaries(&toy_sweep(ExecPolicy::threads(1)), &SweepHooks::none())
        );
    }
}
