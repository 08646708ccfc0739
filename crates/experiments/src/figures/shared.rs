//! Sweeps shared by several figures — all on the engine's streaming path.
//!
//! The paper generates Figures 3, 6, 7, 9, 11 and 12 from the same 64 B NS3
//! runs (and 4, 8, 10 from the 1024 B runs); we mirror that by deriving
//! those figures from one shared sweep *stream* per payload (same experiment
//! tag ⇒ same RNG streams ⇒ mutually consistent numbers), with each figure
//! folding out only the metrics it plots.
//!
//! Each stream also runs only once per `repro` invocation. [`fold_grid`]
//! consults a [`SweepMemo`] carried in [`Options::sweeps`]: the first call
//! for a sweep folds every [`Metric`] and stores the cells, and every call
//! (that one included) gets back cells projected to exactly the metrics its
//! grid asks for. The memo is keyed by everything that decides a result —
//! experiment tag, backend type, backend config (its `Debug` rendering),
//! algorithms, `n` grid and trial count — and by nothing that doesn't
//! (threads, claim costs). It lives as long as the `Options`
//! value it sits in: `repro all` shares one across experiments, a clone
//! starts empty, and runs with execution seams attached (shard range,
//! resume plan, checkpoint monitor — the serve and work paths) bypass it.
//! Tables II/III, Figures 18/19, the 12 B `minpkt` sweep and the one-cell
//! `decomp` sweep ride the same path, so `repro all` runs each of their
//! sweeps once as well.

use crate::aggregate::{
    final_percent_vs_first, series_per_algorithm, MetricStats, Series, StatsCell,
};
use crate::figures::Report;
use crate::options::Options;
use crate::shard::GridMeta;
use crate::summary::{Metric, TrialSummary};
use crate::sweep::{ExecPolicy, Simulator, Sweep};
use crate::table::render_series;
use contention_core::algorithm::AlgorithmKind;
use contention_mac::{MacConfig, MacSim};
use contention_sim::sched::CostSpec;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// The paper's four head-to-head algorithms.
pub fn paper_algorithms() -> Vec<AlgorithmKind> {
    AlgorithmKind::PAPER_SET.to_vec()
}

/// Execution seams the CLI threads into a grid experiment's sweep: the
/// engine's hooks over [`MetricStats`] — cell range (`repro shard`), sparse
/// plan (`repro resume`, leases) and checkpoint monitor (`--checkpoint`).
/// Every grid experiment's `cells` half forwards them untouched to
/// [`fold_grid`], which supplies the grid's cost table.
pub type SweepHooks<'a> = contention_sim::engine::SweepHooks<'a, MetricStats>;

/// Everything that decides a full-grid sweep's results.
#[derive(PartialEq)]
struct SweepKey {
    experiment: &'static str,
    backend: &'static str,
    config: String,
    algorithms: Vec<AlgorithmKind>,
    ns: Vec<u32>,
    trials: u32,
}

/// Full-grid sweeps already run under one [`Options`] value, each folded
/// over every [`Metric`] (see the module docs). `Default` and `Clone` both
/// give an empty memo; equality and `Debug` ignore its contents.
#[derive(Default)]
pub struct SweepMemo {
    sweeps: Mutex<Vec<(SweepKey, Vec<StatsCell>)>>,
}

impl SweepMemo {
    /// The memoized sweep under `key`, running `sweep` (over
    /// [`Metric::ALL`]) on a miss; either way projected to `metrics`.
    fn cells(
        &self,
        key: SweepKey,
        metrics: &[Metric],
        sweep: impl FnOnce() -> Vec<StatsCell>,
    ) -> Vec<StatsCell> {
        let project = |cells: &[StatsCell]| {
            cells
                .iter()
                .map(|c| StatsCell {
                    algorithm: c.algorithm,
                    n: c.n,
                    acc: c.acc.project(metrics),
                })
                .collect()
        };
        let lock = || self.sweeps.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, cells)) = lock().iter().find(|(k, _)| *k == key) {
            return project(cells);
        }
        let cells = sweep();
        let projected = project(&cells);
        lock().push((key, cells));
        projected
    }
}

impl Clone for SweepMemo {
    fn clone(&self) -> SweepMemo {
        SweepMemo::default()
    }
}

impl PartialEq for SweepMemo {
    fn eq(&self, _: &SweepMemo) -> bool {
        true
    }
}

impl Eq for SweepMemo {}

impl fmt::Debug for SweepMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepMemo").finish_non_exhaustive()
    }
}

/// Runs (part of) one grid on any backend, folded down to the grid's
/// metrics — the single engine-facing entry point every grid sweep rides,
/// so the grid description (what `repro shard` partitions and what the
/// artifact records) and the sweep that executes can never disagree.
/// `hooks` carries the execution seams: cell-range restriction, sparse
/// resume plan, checkpoint monitor. A run without any goes through the
/// invocation's [`SweepMemo`], so a repeated sweep costs one projection.
pub fn fold_grid<S: Simulator>(
    experiment: &'static str,
    config: S::Config,
    grid: &GridMeta,
    opts: &Options,
    hooks: &SweepHooks,
) -> Vec<StatsCell>
where
    TrialSummary: From<S::Output>,
    S::Config: fmt::Debug,
{
    if hooks.range.is_some() || hooks.missing.is_some() || hooks.monitor.is_some() {
        return run_grid::<S>(experiment, config, grid, &grid.metrics, opts, hooks);
    }
    let key = SweepKey {
        experiment,
        backend: std::any::type_name::<S>(),
        config: format!("{config:?}"),
        algorithms: grid.algorithms.clone(),
        ns: grid.ns.clone(),
        trials: grid.trials,
    };
    opts.sweeps.cells(key, &grid.metrics, || {
        run_grid::<S>(experiment, config, grid, &Metric::ALL, opts, hooks)
    })
}

/// Runs the engine sweep behind [`fold_grid`], folding out `metrics`.
fn run_grid<S: Simulator>(
    experiment: &'static str,
    config: S::Config,
    grid: &GridMeta,
    metrics: &[Metric],
    opts: &Options,
    hooks: &SweepHooks,
) -> Vec<StatsCell>
where
    TrialSummary: From<S::Output>,
{
    // The grid's cost table rides along so the engine can taper claims and
    // start heavy cells first; it cannot affect any result bit.
    let costs = grid.cell_trial_costs();
    Sweep::<S> {
        experiment,
        config,
        algorithms: grid.algorithms.clone(),
        ns: grid.ns.clone(),
        trials: grid.trials,
        exec: opts.exec(),
    }
    .run_fold(
        MetricStats::collector(metrics),
        &SweepHooks {
            costs: Some(&costs),
            ..*hooks
        },
    )
}

/// The grid every standard MAC figure sweeps (payload-independent).
pub fn mac_grid(opts: &Options, metrics: &[Metric]) -> GridMeta {
    GridMeta {
        algorithms: paper_algorithms(),
        ns: opts.mac_ns(),
        trials: opts.trials_or(8, 30),
        metrics: metrics.to_vec(),
        // A MAC trial simulates Θ(log n) backoff windows of Θ(n) slots.
        cost: CostSpec::NLogN,
    }
}

/// The shared MAC sweep for one payload size, folded down to `metrics`,
/// with the CLI's execution seams attached.
pub fn mac_stats_range(
    opts: &Options,
    payload: u32,
    metrics: &[Metric],
    hooks: &SweepHooks,
) -> Vec<StatsCell> {
    let experiment: &'static str = match payload {
        64 => "mac-64",
        1024 => "mac-1024",
        12 => "mac-12",
        _ => "mac-other",
    };
    fold_grid::<MacSim>(
        experiment,
        MacConfig::paper(AlgorithmKind::Beb, payload),
        &mac_grid(opts, metrics),
        opts,
        hooks,
    )
}

/// The shared MAC sweep for one payload size, folded down to `metrics`
/// (the tests' shorthand for [`mac_stats_range`] without hooks).
#[cfg(test)]
pub(crate) fn mac_stats(opts: &Options, payload: u32, metrics: &[Metric]) -> Vec<StatsCell> {
    mac_stats_range(opts, payload, metrics, &SweepHooks::none())
}

/// A one-cell sweep: all trials of a single `(config, n)` pair, streamed
/// through the generic engine into the requested metric buffers. The
/// ablations use this to vary config fields the grid dimensions don't cover.
pub fn single_stats<S: Simulator>(
    experiment: &'static str,
    config: S::Config,
    n: u32,
    trials: u32,
    exec: ExecPolicy,
    metrics: &[Metric],
) -> MetricStats
where
    TrialSummary: From<S::Output>,
{
    let algorithm = S::algorithm(&config);
    let mut cells = Sweep::<S> {
        experiment,
        config,
        algorithms: vec![algorithm],
        ns: vec![n],
        trials,
        exec,
    }
    .run_fold(MetricStats::collector(metrics), &SweepHooks::none());
    cells.remove(0).acc
}

/// Builds the standard figure report from already-folded cells: a
/// per-algorithm series table over `n` plus the paper's percent-change-vs-BEB
/// line at the largest `n`. It depends only on the cells, never on how they
/// were executed, so `repro merge` can re-run it on reassembled shard state.
pub fn standard_mac_figure_from_cells(
    title: &str,
    csv_name: &str,
    metric: Metric,
    cells: &[StatsCell],
    paper_percents: &str,
) -> Report {
    let series = series_per_algorithm(cells, &paper_algorithms(), metric);
    report_from_series(title, csv_name, metric, &series, paper_percents)
}

/// Renders series + percent line into a [`Report`].
pub fn report_from_series(
    title: &str,
    csv_name: &str,
    metric: Metric,
    series: &[Series],
    paper_percents: &str,
) -> Report {
    let mut report = Report::new(title);
    report.line(format!("metric: {}", metric.label()));
    report.line(render_series("n", series));
    let max_n = series[0].points.last().expect("non-empty").x;
    let pct = final_percent_vs_first(series);
    let rendered: Vec<String> = pct
        .iter()
        .map(|(name, p)| format!("{name} {p:+.1}%"))
        .collect();
    report.line(format!(
        "vs BEB at n={max_n}: {}   (paper: {paper_percents})",
        rendered.join(", ")
    ));
    report.series_csv(csv_name, "n", series);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_sim::engine::CellRange;
    use contention_sim::monitor::{SnapshotCadence, SweepMonitor};

    fn tiny_opts() -> Options {
        Options {
            trials: Some(3),
            threads: Some(2),
            ..Options::default()
        }
    }

    fn memo_len(opts: &Options) -> usize {
        opts.sweeps.sweeps.lock().unwrap().len()
    }

    /// Trial `t` of `metric` in `cell`, `None` while unrecorded.
    fn trial(cell: &StatsCell, metric: Metric, t: usize) -> Option<f64> {
        let i = cell.acc.metrics().iter().position(|&m| m == metric)?;
        Some(cell.acc.raw_samples()[i].raw()[t]).filter(|v| !v.is_nan())
    }

    #[test]
    fn a_repeated_sweep_is_a_memo_hit_projected_to_its_metrics() {
        let opts = tiny_opts();
        let first = mac_stats(&opts, 64, &[Metric::CwSlots]);
        assert_eq!(memo_len(&opts), 1);
        let metrics = [Metric::TotalTimeUs, Metric::CwSlots];
        let second = mac_stats(&opts, 64, &metrics);
        assert_eq!(memo_len(&opts), 1, "the second call re-ran the sweep");
        assert_eq!(first, mac_stats(&tiny_opts(), 64, &[Metric::CwSlots]));
        assert_eq!(second, mac_stats(&tiny_opts(), 64, &metrics));
        assert!(second.iter().all(|c| c.acc.metrics() == metrics));
        // Another payload is another stream.
        mac_stats(&opts, 1024, &[Metric::CwSlots]);
        assert_eq!(memo_len(&opts), 2);
    }

    #[test]
    fn execution_seams_bypass_the_memo_and_match_the_full_run() {
        struct Ignore;
        impl SweepMonitor<MetricStats> for Ignore {
            fn snapshot(&self, _: contention_sim::monitor::SweepSnapshot<MetricStats>) {}
        }
        let metrics = [Metric::CwSlots];
        let full = mac_stats(&tiny_opts(), 64, &metrics);
        let missing = [(1, vec![0, 2]), (6, vec![1])];
        let hooks = [
            SweepHooks::range(Some(CellRange { lo: 2, hi: 5 })),
            SweepHooks {
                missing: Some(&missing),
                ..SweepHooks::default()
            },
            SweepHooks {
                monitor: Some((SnapshotCadence::trials(1), &Ignore)),
                ..SweepHooks::default()
            },
        ];
        for hooks in &hooks {
            let opts = tiny_opts();
            let cells = mac_stats_range(&opts, 64, &metrics, hooks);
            assert_eq!(memo_len(&opts), 0, "a hooked run went through the memo");
            let mut compared = 0;
            for cell in &cells {
                let twin = full
                    .iter()
                    .find(|c| (c.algorithm, c.n) == (cell.algorithm, cell.n))
                    .expect("a grid cell");
                for t in 0..3 {
                    if let Some(v) = trial(cell, Metric::CwSlots, t) {
                        assert_eq!(Some(v), trial(twin, Metric::CwSlots, t));
                        compared += 1;
                    }
                }
            }
            assert!(compared >= 3, "only {compared} trials ran");
        }
    }

    #[test]
    fn other_payloads_under_one_tag_do_not_share_an_entry() {
        let opts = tiny_opts();
        let a = mac_stats(&opts, 100, &[Metric::TotalTimeUs]);
        let b = mac_stats(&opts, 200, &[Metric::TotalTimeUs]);
        assert_eq!(memo_len(&opts), 2);
        assert_ne!(a, b);
        assert_eq!(b, mac_stats(&tiny_opts(), 200, &[Metric::TotalTimeUs]));
    }

    #[test]
    fn a_cloned_options_starts_with_an_empty_memo() {
        let opts = tiny_opts();
        mac_stats(&opts, 64, &[Metric::CwSlots]);
        let copy = opts.clone();
        assert_eq!(memo_len(&copy), 0);
        assert_eq!(copy, opts, "equality ignores the memo");
        assert_eq!(format!("{:?}", copy.sweeps), format!("{:?}", opts.sweeps));
    }

    #[test]
    fn shared_sweep_covers_grid() {
        let opts = tiny_opts();
        let cells = mac_stats(&opts, 64, &[Metric::CwSlots]);
        assert_eq!(cells.len(), 4 * opts.mac_ns().len());
        assert!(cells
            .iter()
            .all(|c| c.acc.sample(Metric::CwSlots).len() == 3));
    }

    #[test]
    fn standard_figure_produces_table_and_percents() {
        let cells = mac_stats(&tiny_opts(), 64, &[Metric::CwSlots]);
        let r = standard_mac_figure_from_cells(
            "test figure",
            "test_fig",
            Metric::CwSlots,
            &cells,
            "-49.4% / -68.2% / -83.0%",
        );
        assert!(r.body.contains("BEB"));
        assert!(r.body.contains("vs BEB at n=150"));
        assert_eq!(r.csv.len(), 1);
    }
}
