//! Figure 14 — LLB − BEB total-time difference as packet size grows.
//!
//! The paper fits an OLS model of the per-trial difference on payload size
//! and finds each extra 100 B costs LLB roughly 700 µs more than BEB, with
//! p < 0.001 — empirical support for the §IV-D asymptotics (total time
//! depends on collisions × packet time).

use crate::aggregate::{aggregate_values, paired_differences, MetricStats, Series};
use crate::figures::shared::SweepHooks;
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;
use crate::sweep::Sweep;
use crate::table::render_series;
use contention_core::algorithm::AlgorithmKind;
use contention_mac::{MacConfig, MacSim};
use contention_stats::regression::linear_fit;

/// Runs the payload sweep and the regression.
pub fn fig14(opts: &Options) -> Report {
    let n = 150;
    let payloads: Vec<u32> = if opts.full {
        (1..=10).map(|i| i * 100).collect()
    } else {
        vec![100, 400, 700, 1000]
    };
    let trials = opts.trials_or(8, 30);

    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut points = Vec::new();
    for &payload in &payloads {
        let cells = Sweep::<MacSim> {
            experiment: "fig14",
            config: MacConfig::paper(AlgorithmKind::Beb, payload),
            algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::LogLogBackoff],
            ns: vec![n],
            trials,
            exec: opts.exec(),
        }
        .run_fold(
            MetricStats::collector(&[Metric::TotalTimeUs]),
            &SweepHooks::none(),
        );
        // Position-addressed buffers keep trial order, so pairing by index
        // still compares common-random-number partners.
        let diffs = paired_differences(
            cells[1].acc.sample(Metric::TotalTimeUs),
            cells[0].acc.sample(Metric::TotalTimeUs),
        );
        for &d in &diffs {
            xs.push(payload as f64);
            ys.push(d);
        }
        points.push(aggregate_values(payload as f64, &diffs));
    }

    let fit = linear_fit(&xs, &ys);
    let series = vec![Series {
        name: "LLB − BEB (µs)".to_string(),
        points,
    }];

    let mut report = Report::new(format!(
        "Figure 14 — LLB − BEB total time vs payload size (n = {n})"
    ));
    report.line(render_series("payload B", &series));
    report.line(format!(
        "OLS fit: slope {:+.2} µs/B ⇒ {:+.0} µs per extra 100 B (paper: ≈ +700 µs per 100 B)",
        fit.slope,
        fit.slope * 100.0
    ));
    report.line(format!(
        "slope t = {:.2}, p = {:.2e} (paper: p < 0.001), R² = {:.3}",
        fit.t_statistic, fit.p_value, fit.r_squared
    ));
    report.series_csv("fig14_llb_minus_beb", "payload_bytes", &series);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_is_positive_and_significant() {
        let opts = Options {
            trials: Some(6),
            threads: Some(2),
            ..Options::default()
        };
        let r = fig14(&opts);
        let fit_line = r.body.lines().find(|l| l.starts_with("OLS fit")).unwrap();
        assert!(fit_line.contains("slope +"), "{fit_line}");
        let p_line = r.body.lines().find(|l| l.starts_with("slope t")).unwrap();
        // Significance at a loose threshold for the quick grid.
        let p: f64 = p_line
            .split("p = ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .trim_end_matches(',')
            .parse()
            .unwrap();
        assert!(p < 0.05, "regression not significant: {p_line}");
    }
}
