//! Grid experiments as the shard, checkpoint and serve paths see them.
//!
//! A grid experiment factors into a *cells* half (one engine sweep,
//! restrictable to a cell range, a sparse trial plan or a checkpoint
//! monitor) and a *report* half (a pure function of the folded cells).
//! Its [`ShardableEntry`] wires those halves together with the
//! [`GridMeta`] describing the sweep, so the CLI can partition the grid,
//! run one cell range per process, and rebuild the exact single-process
//! report from merged `shard_state/v1` artifacts.
//!
//! The entries live in the one experiment table, [`figures::EXPERIMENTS`],
//! and a grid experiment's run *is* `report(opts, cells(opts, no hooks))`,
//! so "the report of the full cells equals the run" holds by construction.
//! What remains to pin — by this module's tests and by
//! `tests/shard_equivalence.rs` — is that merged shards reproduce the full
//! cells, and with them the run's report, byte for byte, including the
//! CSV/JSON artifacts.

use crate::aggregate::StatsCell;
use crate::figures::shared::SweepHooks;
use crate::figures::{self, Report};
use crate::options::Options;
use crate::shard::GridMeta;

/// One grid experiment: the sweep-grid description plus the two halves of
/// its pipeline. `Copy` (it is three fn pointers and a static name) so the
/// work-server can hold one across threads.
#[derive(Clone, Copy)]
pub struct ShardableEntry {
    /// Subcommand name (`fig5`, `scale`, …).
    pub name: &'static str,
    /// The grid the experiment sweeps under these options.
    pub grid: fn(&Options) -> GridMeta,
    /// Runs the sweep — restricted/sparsified/monitored per the hooks —
    /// and returns the folded cells.
    pub cells: fn(&Options, &SweepHooks) -> Vec<StatsCell>,
    /// Builds the experiment's report from (complete) folded cells.
    pub report: fn(&Options, &[StatsCell]) -> Report,
}

/// Looks up one grid experiment by name.
pub fn find_shardable(name: &str) -> Option<ShardableEntry> {
    figures::find(name)?.grid_entry()
}

/// [`find_shardable`], or the one error every grid-only path reports
/// (`shard`, `merge`, `--checkpoint`, `resume`, `serve`, `work`).
pub fn grid_experiment(name: &str) -> Result<ShardableEntry, String> {
    find_shardable(name).ok_or_else(|| {
        let names: Vec<&str> = figures::EXPERIMENTS
            .iter()
            .filter_map(|e| e.grid_entry())
            .map(|e| e.name)
            .collect();
        format!(
            "{name:?} is not a grid experiment (grid experiments: {})",
            names.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{CsvBlock, EXPERIMENTS};
    use crate::jsonout;
    use crate::shard::{merge_states, ShardState};
    use contention_sim::engine::CellRange;

    fn tiny_opts() -> Options {
        Options {
            trials: Some(2),
            threads: Some(2),
            ..Options::default()
        }
    }

    /// A report's full byte image: title, body, and every rendered artifact.
    fn rendered(report: &Report) -> (String, String, Vec<String>) {
        let blocks = report
            .csv
            .iter()
            .map(|b| match b {
                CsvBlock::Series {
                    name,
                    x_label,
                    series,
                } => jsonout::series_json(name, x_label, series),
                CsvBlock::Rows { name, rows } => jsonout::rows_json(name, rows),
            })
            .collect();
        (report.title.clone(), report.body.clone(), blocks)
    }

    /// The table holds the paper's 33 experiments in paper order, each
    /// once; the grid experiments are marked `+`.
    #[test]
    fn the_table_lists_every_experiment_once_in_paper_order() {
        let listed: Vec<String> = EXPERIMENTS
            .iter()
            .map(|e| match e.grid_entry() {
                Some(_) => format!("+{}", e.name()),
                None => e.name().to_string(),
            })
            .collect();
        assert_eq!(
            listed.join(" "),
            "table1 +table2 +fig3 +fig4 +fig5 +fig6 +fig7 +fig8 +fig9 +fig10 +fig11 +fig12 \
             fig13 fig14 +table3 +fig15 +fig16 +fig18 +fig19 +decomp rtscts +minpkt model \
             ablate-ackto ablate-eifs ablate-trunc ablate-sem ablate-loss ablate-poly \
             +dynamic +saturation soften +scale"
        );
    }

    /// Grid description and executed sweep agree: the cells a full run
    /// returns are exactly the grid's cells, in grid order.
    #[test]
    fn grids_describe_the_cells_the_sweep_returns() {
        let opts = tiny_opts();
        for entry in EXPERIMENTS.iter().filter_map(|e| e.grid_entry()) {
            let grid = (entry.grid)(&opts);
            let cells = (entry.cells)(&opts, &SweepHooks::none());
            assert_eq!(cells.len(), grid.cell_count(), "{}", entry.name);
            let mut expected = Vec::new();
            for &alg in &grid.algorithms {
                for &n in &grid.ns {
                    expected.push((alg, n));
                }
            }
            let got: Vec<_> = cells.iter().map(|c| (c.algorithm, c.n)).collect();
            assert_eq!(got, expected, "{}: cell order", entry.name);
            for cell in &cells {
                assert_eq!(cell.acc.metrics(), &grid.metrics[..], "{}", entry.name);
                assert!(cell.acc.is_complete(), "{}", entry.name);
            }
        }
    }

    /// Every grid experiment split into two shards, round-tripped through
    /// the artifact format and merged, reports exactly what its direct run
    /// reports (the full backend × shard-count matrix lives in
    /// `tests/shard_equivalence.rs`).
    #[test]
    fn two_shards_merge_back_to_the_direct_report_for_every_grid_experiment() {
        for experiment in EXPERIMENTS {
            let Some(entry) = experiment.grid_entry() else {
                continue;
            };
            let opts = tiny_opts();
            let direct = experiment.run(&opts);
            let grid = (entry.grid)(&opts);
            let states: Vec<ShardState> = (0..2)
                .map(|i| {
                    let range = CellRange::shard(grid.cell_count(), i, 2);
                    let cells = (entry.cells)(&opts, &SweepHooks::range(Some(range)));
                    let text =
                        ShardState::from_cells(entry.name, opts.full, (i as u32, 2), &grid, &cells)
                            .to_json();
                    ShardState::parse(&text).expect("round trip")
                })
                .collect();
            let merged = merge_states(states).expect("compatible shards");
            assert!(merged.is_complete(), "{}", entry.name);
            // The options `repro merge` rebuilds from the artifact.
            let report_opts = Options::for_grid(merged.full, merged.grid.trials);
            let report = (entry.report)(&report_opts, &merged.into_cells());
            assert_eq!(rendered(&report), rendered(&direct), "{}", entry.name);
        }
    }
}
