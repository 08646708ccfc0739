//! Figures 7–10 — total time and half-completion time in the MAC simulator.
//!
//! These are the paper's headline reversal: the ordering of Figures 3–6
//! flips once the cost of collisions is measured (Result 2).
//!
//! All four are grid experiments: a grid, a `*_cells` half (the shared MAC
//! sweep for the payload, with the CLI's execution seams attached) and a
//! pure `*_report` half over the folded cells. Each figure's run is that
//! composition, declared in the experiment table (`figures::EXPERIMENTS`).

use crate::aggregate::StatsCell;
use crate::figures::shared::{
    mac_grid, mac_stats_range, standard_mac_figure_from_cells, SweepHooks,
};
use crate::figures::Report;
use crate::options::Options;
use crate::shard::GridMeta;
use crate::summary::Metric;

/// The grid of Figures 7 and 8.
pub fn total_grid(opts: &Options) -> GridMeta {
    mac_grid(opts, &[Metric::TotalTimeUs])
}

/// The grid of Figures 9 and 10.
pub fn half_grid(opts: &Options) -> GridMeta {
    mac_grid(opts, &[Metric::HalfTimeUs])
}

pub fn fig7_cells(opts: &Options, hooks: &SweepHooks) -> Vec<StatsCell> {
    mac_stats_range(opts, 64, &[Metric::TotalTimeUs], hooks)
}

/// Figure 7: total time, 64 B payload.
pub fn fig7_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 7 — total time vs n (MAC sim, 64 B payload)",
        "fig7_total_time_64",
        Metric::TotalTimeUs,
        cells,
        "LLB +5.6%, LB +19.3%, STB +26.5% (ordering reversed!)",
    )
}

pub fn fig8_cells(opts: &Options, hooks: &SweepHooks) -> Vec<StatsCell> {
    mac_stats_range(opts, 1024, &[Metric::TotalTimeUs], hooks)
}

/// Figure 8: total time, 1024 B payload (larger packets favour BEB more).
pub fn fig8_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 8 — total time vs n (MAC sim, 1024 B payload)",
        "fig8_total_time_1024",
        Metric::TotalTimeUs,
        cells,
        "LLB +9.1%, LB +25.4%, STB +35.4%",
    )
}

pub fn fig9_cells(opts: &Options, hooks: &SweepHooks) -> Vec<StatsCell> {
    mac_stats_range(opts, 64, &[Metric::HalfTimeUs], hooks)
}

/// Figure 9: time until n/2 packets complete, 64 B — stragglers are *not*
/// the explanation; BEB leads on the first half too.
pub fn fig9_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 9 — time for n/2 packets vs n (MAC sim, 64 B payload)",
        "fig9_half_time_64",
        Metric::HalfTimeUs,
        cells,
        "LLB +13.1%, LB +17.3%, STB +25.4%",
    )
}

pub fn fig10_cells(opts: &Options, hooks: &SweepHooks) -> Vec<StatsCell> {
    mac_stats_range(opts, 1024, &[Metric::HalfTimeUs], hooks)
}

/// Figure 10: time until n/2 packets complete, 1024 B.
pub fn fig10_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 10 — time for n/2 packets vs n (MAC sim, 1024 B payload)",
        "fig10_half_time_1024",
        Metric::HalfTimeUs,
        cells,
        "LLB +10.1%, LB +16.6%, STB +26.6%",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::find;

    #[test]
    fn fig7_shows_the_reversal() {
        let opts = Options {
            trials: Some(5),
            threads: Some(2),
            ..Options::default()
        };
        let r = find("fig7").unwrap().run(&opts);
        let pct_line = r.body.lines().find(|l| l.starts_with("vs BEB")).unwrap();
        // The strongly-separated challengers must be *slower* than BEB in
        // total time (LLB sits within noise of BEB at few trials, so it is
        // asserted only in the integration tests with more trials).
        assert!(
            pct_line.contains(", LB +") || pct_line.starts_with("vs BEB at n=150: LB +"),
            "{pct_line}"
        );
        assert!(pct_line.contains("STB +"), "{pct_line}");
    }
}
