//! # contention-sim
//!
//! Execution substrate for the contention-resolution reproduction:
//!
//! * [`event`] — a time-ordered pending-event queue with O(log n) scheduling,
//!   stable FIFO tie-breaking at equal timestamps, and token-based lazy
//!   cancellation (needed for backoff timers that freeze when the medium
//!   goes busy).
//! * [`parallel`] — a deterministic parallel executor; workers claim
//!   contiguous index ranges from one atomic cursor in cost-tapered (guided
//!   self-scheduling) claims planned by [`parallel::TaperSchedule`], and
//!   results are routed by index, so every number is independent of thread
//!   scheduling and claim sizing.
//! * [`pool`] — the persistent worker pool the executors borrow threads
//!   from, eliminating per-sub-sweep spawn/join overhead across the many
//!   sweeps of one figure run (with a scoped-thread fallback).
//! * [`sched`] — cost-aware scheduling metadata: the [`sched::CostModel`]
//!   trait, the analytic [`sched::CostSpec`] shapes experiment grids
//!   declare, and the [`sched::CalibratedCost`] quick-probe calibrator.
//! * [`engine`] — the generic sweep engine: the [`engine::Simulator`] trait
//!   every backend implements, the canonical per-trial RNG derivation, the
//!   [`engine::Accumulator`] streaming-fold seam, and the
//!   thread-count-independent [`engine::Sweep`] grid runner: one entry
//!   point, [`engine::Sweep::run_fold`], under an [`engine::ExecPolicy`]
//!   (threads / progress) with [`engine::SweepHooks`] (work plan, monitor,
//!   cost table).
//! * [`monitor`] — the live-observation seam: [`monitor::SnapshotCadence`],
//!   [`monitor::SweepSnapshot`], and the [`monitor::SweepMonitor`] sink a
//!   checkpoint writer attaches to an in-flight fold run.
//! * [`progress`] — the rate-limited stderr progress meter long sweeps use.
//! * [`summary`] — [`summary::TrialSummary`], the scalar per-trial record
//!   every backend's output reduces to, and the [`summary::Metric`]
//!   selectors figures plot.

pub mod engine;
pub mod event;
pub mod monitor;
pub mod parallel;
pub mod pool;
pub mod progress;
pub mod sched;
pub mod summary;

pub use engine::{
    folded, run_trial, Accumulator, CellRange, ExecPolicy, FoldedCell, MergeableAccumulator,
    Simulator, Slots, Sweep, SweepHooks, TrialValue,
};
pub use event::{EventQueue, EventToken};
pub use monitor::{SnapshotCadence, SweepMonitor, SweepSnapshot};
pub use parallel::{parallel_for_tapered, TaperSchedule};
pub use sched::{CalibratedCost, CostModel, CostSpec};
pub use summary::{Metric, TrialSummary};
