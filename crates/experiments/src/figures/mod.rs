//! One module per table/figure of the paper's evaluation, and the one
//! table of experiments the `repro` subcommands name ([`EXPERIMENTS`]).
//!
//! Each experiment is declared once, in paper order, in one of two shapes
//! (see [`Experiment`]): a *grid experiment* — one sweep grid, the cells
//! half that folds it, and a pure report over the folded cells — or a
//! *direct* runner for the experiments that sweep zero times or several
//! differently configured grids. A grid experiment's run is that
//! composition, defined once in [`Experiment::run`], which is also why
//! every grid experiment can be sharded, checkpointed, resumed and served.

pub mod ablations;
pub mod abstract_cw;
pub mod ack_timeouts;
pub mod best_of_k;
pub mod cw_slots;
pub mod decomposition;
pub mod dynamic_traffic;
pub mod min_packet;
pub mod model_check;
pub mod noisy;
pub mod payload_regression;
pub mod rts_cts;
pub mod saturation;
pub mod scale;
pub mod sharding;
pub mod shared;
pub mod tables;
pub mod total_time;
pub mod trace_fig13;

use crate::aggregate::{Series, StatsCell};
use crate::options::Options;
use crate::shard::GridMeta;
use crate::{csvout, jsonout};
use sharding::ShardableEntry;
use shared::SweepHooks;
use std::path::Path;

/// A CSV artifact a figure wants written alongside its text output.
#[derive(Debug, Clone)]
pub enum CsvBlock {
    Series {
        name: String,
        x_label: String,
        series: Vec<Series>,
    },
    Rows {
        name: String,
        rows: Vec<Vec<String>>,
    },
}

/// The result of regenerating one table/figure.
#[derive(Debug, Clone)]
pub struct Report {
    /// e.g. "Figure 7 — total time, 64 B payload".
    pub title: String,
    /// Rendered text: tables, percentage lines, commentary.
    pub body: String,
    /// CSV artifacts (written only when `--out` is given).
    pub csv: Vec<CsvBlock>,
}

impl Report {
    pub fn new(title: impl Into<String>) -> Report {
        Report {
            title: title.into(),
            body: String::new(),
            csv: Vec::new(),
        }
    }

    pub fn line(&mut self, text: impl AsRef<str>) {
        self.body.push_str(text.as_ref());
        self.body.push('\n');
    }

    pub fn series_csv(&mut self, name: &str, x_label: &str, series: &[Series]) {
        self.csv.push(CsvBlock::Series {
            name: name.to_string(),
            x_label: x_label.to_string(),
            series: series.to_vec(),
        });
    }

    pub fn rows_csv(&mut self, name: &str, rows: Vec<Vec<String>>) {
        self.csv.push(CsvBlock::Rows {
            name: name.to_string(),
            rows,
        });
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("=== {} ===", self.title);
        println!("{}", self.body);
    }

    /// Writes all CSV artifacts into `dir`; an I/O failure comes back as
    /// `Err` (the CLI surfaces it through its `error:` path).
    pub fn write_csv(&self, dir: &Path) -> Result<(), String> {
        for block in &self.csv {
            match block {
                CsvBlock::Series {
                    name,
                    x_label,
                    series,
                } => {
                    csvout::write_series(dir, name, x_label, series)?;
                }
                CsvBlock::Rows { name, rows } => {
                    csvout::write_rows(dir, name, rows)?;
                }
            }
        }
        Ok(())
    }

    /// Writes the same artifacts as JSON into `dir` (`repro --json`).
    pub fn write_json(&self, dir: &Path) -> Result<(), String> {
        for block in &self.csv {
            match block {
                CsvBlock::Series {
                    name,
                    x_label,
                    series,
                } => {
                    jsonout::write_series(dir, name, x_label, series)?;
                }
                CsvBlock::Rows { name, rows } => {
                    jsonout::write_rows(dir, name, rows)?;
                }
            }
        }
        Ok(())
    }
}

/// One experiment of the paper's evaluation, in one of two shapes.
#[derive(Clone, Copy)]
pub enum Experiment {
    /// One declared sweep grid plus a pure report over its folded cells;
    /// its run is `report(opts, cells(opts, no hooks))`. `repro shard` /
    /// `merge`, `--checkpoint` / `resume` and `serve` / `work` accept
    /// exactly these.
    Grid {
        about: &'static str,
        entry: ShardableEntry,
    },
    /// A runner over zero sweeps, or over several differently configured
    /// ones that a single `shard_state/v1` grid cannot describe.
    Direct {
        name: &'static str,
        about: &'static str,
        run: fn(&Options) -> Report,
    },
}

impl Experiment {
    /// The `repro` subcommand.
    pub fn name(&self) -> &'static str {
        match self {
            Experiment::Grid { entry, .. } => entry.name,
            Experiment::Direct { name, .. } => name,
        }
    }

    /// The one-line description `repro list` prints.
    pub fn about(&self) -> &'static str {
        match self {
            Experiment::Grid { about, .. } | Experiment::Direct { about, .. } => about,
        }
    }

    /// The grid-experiment half, `None` for a direct runner.
    pub fn grid_entry(&self) -> Option<ShardableEntry> {
        match self {
            Experiment::Grid { entry, .. } => Some(*entry),
            Experiment::Direct { .. } => None,
        }
    }

    /// Regenerates the experiment's report.
    pub fn run(&self, opts: &Options) -> Report {
        match self {
            Experiment::Grid { entry, .. } => {
                (entry.report)(opts, &(entry.cells)(opts, &SweepHooks::none()))
            }
            Experiment::Direct { run, .. } => run(opts),
        }
    }
}

const fn grid(
    name: &'static str,
    about: &'static str,
    grid: fn(&Options) -> GridMeta,
    cells: fn(&Options, &SweepHooks) -> Vec<StatsCell>,
    report: fn(&Options, &[StatsCell]) -> Report,
) -> Experiment {
    Experiment::Grid {
        about,
        entry: ShardableEntry {
            name,
            grid,
            cells,
            report,
        },
    }
}

const fn direct(
    name: &'static str,
    about: &'static str,
    run: fn(&Options) -> Report,
) -> Experiment {
    Experiment::Direct { name, about, run }
}

/// Everything `repro` can regenerate, in paper order: the grid
/// experiments with their grid, cells and report halves, the rest with a
/// direct runner.
#[rustfmt::skip]
pub static EXPERIMENTS: &[Experiment] = &[
    direct("table1", "Table I — 802.11g parameters and derived frame times", tables::table1),
    grid("table2", "Table II — CW-slot guarantees vs measured growth",
         tables::growth_grid, tables::growth_cells, tables::table2_report),
    grid("fig3", "Figure 3 — CW slots, MAC sim, 64 B payload",
         cw_slots::cw_grid, cw_slots::fig3_cells, cw_slots::fig3_report),
    grid("fig4", "Figure 4 — CW slots, MAC sim, 1024 B payload",
         cw_slots::cw_grid, cw_slots::fig4_cells, cw_slots::fig4_report),
    grid("fig5", "Figure 5 — CW slots, abstract simulator",
         abstract_cw::fig5_grid, abstract_cw::fig5_cells, abstract_cw::fig5_report),
    grid("fig6", "Figure 6 — CW slots to finish n/2 packets",
         cw_slots::fig6_grid, cw_slots::fig6_cells, cw_slots::fig6_report),
    grid("fig7", "Figure 7 — total time, 64 B payload",
         total_time::total_grid, total_time::fig7_cells, total_time::fig7_report),
    grid("fig8", "Figure 8 — total time, 1024 B payload",
         total_time::total_grid, total_time::fig8_cells, total_time::fig8_report),
    grid("fig9", "Figure 9 — time for n/2 packets, 64 B",
         total_time::half_grid, total_time::fig9_cells, total_time::fig9_report),
    grid("fig10", "Figure 10 — time for n/2 packets, 1024 B",
         total_time::half_grid, total_time::fig10_cells, total_time::fig10_report),
    grid("fig11", "Figure 11 — max ACK timeouts per station",
         ack_timeouts::fig11_grid, ack_timeouts::fig11_cells, ack_timeouts::fig11_report),
    grid("fig12", "Figure 12 — time waiting for ACK timeouts",
         ack_timeouts::fig12_grid, ack_timeouts::fig12_cells, ack_timeouts::fig12_report),
    direct("fig13", "Figure 13 — execution trace, BEB, 20 stations", trace_fig13::fig13),
    direct("fig14", "Figure 14 — LLB − BEB total time vs packet size", payload_regression::fig14),
    grid("table3", "Table III — collision bounds vs measured growth",
         tables::growth_grid, tables::growth_cells, tables::table3_report),
    grid("fig15", "Figure 15 — CW slots at large n (abstract)",
         abstract_cw::large_n_grid, abstract_cw::large_n_cells, abstract_cw::fig15_report),
    grid("fig16", "Figure 16 — collision ratios vs STB (abstract)",
         abstract_cw::large_n_grid, abstract_cw::large_n_cells, abstract_cw::fig16_report),
    grid("fig18", "Figure 18 — BEST-OF-k estimates of n",
         best_of_k::grid, best_of_k::cells, best_of_k::fig18_report),
    grid("fig19", "Figure 19 — total time, BEST-OF-k vs BEB",
         best_of_k::grid, best_of_k::cells, best_of_k::fig19_report),
    grid("decomp", "§III-B — total-time decomposition, BEB n=150",
         decomposition::grid, decomposition::cells, decomposition::report),
    direct("rtscts", "§III-B — RTS/CTS check, LLB vs BEB", rts_cts::run),
    grid("minpkt", "§V-B — minimum-size packets (12 B payload)",
         min_packet::grid, min_packet::cells, min_packet::report),
    direct("model", "§IV — T_A = Θ(C·P + W) model checks", model_check::run),
    direct("ablate-ackto", "ablation — ACK-timeout duration sweep (§V-B cliff)",
           ablations::ack_timeout),
    direct("ablate-eifs", "ablation — 802.11 EIFS rule on/off", ablations::eifs),
    direct("ablate-trunc", "ablation — CWmax truncation (§V-B)", ablations::truncation),
    direct("ablate-sem", "ablation — windowed vs residual-timer semantics", ablations::semantics),
    direct("ablate-loss", "ablation — ACK-loss failure injection", ablations::ack_loss),
    direct("ablate-poly", "ablation — polynomial backoff baselines", ablations::polynomial),
    grid("dynamic", "§VIII extension — long-lived bursty traffic",
         dynamic_traffic::grid, dynamic_traffic::cells, dynamic_traffic::report),
    grid("saturation", "saturation phase diagram — offered-load sweep on 802.11g costs",
         saturation::grid, saturation::cells, saturation::report),
    direct("soften", "arXiv:2408.11275 extension — softened collisions / noisy channel",
           noisy::run),
    grid("scale", "§V-A at scale — streaming sweep to n = 10⁵ (10⁶ with --full)",
         scale::grid, scale::cells, scale::report),
];

/// Looks up one experiment by subcommand name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name() == name)
}

/// `(subcommand, description, runner)` for every experiment, in paper order.
pub fn registry() -> impl Iterator<Item = (&'static str, &'static str, impl Fn(&Options) -> Report)>
{
    EXPERIMENTS
        .iter()
        .map(|e| (e.name(), e.about(), move |opts: &Options| e.run(opts)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates() {
        let mut r = Report::new("t");
        r.line("a");
        r.line("b");
        assert_eq!(r.body, "a\nb\n");
    }
}
