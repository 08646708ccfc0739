//! §IV / Result 5 — checking the `T_A = Θ(C_A · P + W_A)` model.
//!
//! Two demonstrations:
//!
//! 1. **Analytic**: with `P = Θ(1)` the model preserves the theory ordering
//!    (newer algorithms win); with `P = Ω(lg n)` it predicts the reversal
//!    (LLB and LB fall behind BEB and STB) — Result 5.
//! 2. **Empirical**: plugging the abstract simulator's measured `C_A` and
//!    `W_A` into the model with the real 64 B / 1024 B packet costs predicts
//!    the same winner the MAC simulator measures.

use crate::aggregate::MetricStats;
use crate::figures::shared::{paper_algorithms, SweepHooks};
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;
use crate::sweep::{folded, Sweep};
use crate::table::render;
use contention_core::algorithm::AlgorithmKind;
use contention_core::bounds::{llb_vs_beb_packet_threshold, total_time_bound};
use contention_core::model::CostModel;
use contention_core::params::Phy80211g;
use contention_core::util::lg;
use contention_mac::{MacConfig, MacSim};
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::WindowedSim;

pub fn run(opts: &Options) -> Report {
    let mut report = Report::new("§IV — the collision-cost model T_A = Θ(C_A·P + W_A)");

    // 1. Analytic ordering flip.
    report.line("predicted total-time ordering from Table III bounds (lower is better):");
    let mut rows = Vec::new();
    for exp in [10u32, 20, 30] {
        let n = 1u64 << exp;
        for (p_label, p) in [("P = 1 slot", 1.0), ("P = lg n slots", lg(n as f64))] {
            let mut scored: Vec<(String, f64)> = AlgorithmKind::PAPER_SET
                .iter()
                .map(|&a| (a.label(), total_time_bound(a, n, p)))
                .collect();
            scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
            let order: Vec<String> = scored.iter().map(|(l, _)| l.clone()).collect();
            rows.push(vec![
                format!("2^{exp}"),
                p_label.to_string(),
                order.join(" < "),
            ]);
        }
    }
    report.line(render(
        &["n".into(), "packet time".into(), "predicted order".into()],
        &rows,
    ));
    report.line(format!(
        "LLB overtakes BEB once P = ω(lg n · lg lg lg n / lg lg n); at n = 2^20 that \
         threshold is {:.1} slots — the 1024 B packet is {:.1} slots (Result 5)",
        llb_vs_beb_packet_threshold(1 << 20),
        CostModel::for_payload(&Phy80211g::paper_defaults(), 1024).collision_cost_in_slots()
    ));

    // 2. Empirical: model( measured C, W from the abstract sim ) vs MAC total.
    let n = 150u32;
    let trials = opts.trials_or(8, 30);
    let abs_cells = Sweep::<WindowedSim> {
        experiment: "model-abs",
        config: WindowedConfig::truncated_model(AlgorithmKind::Beb),
        algorithms: paper_algorithms(),
        ns: vec![n],
        trials,
        exec: opts.exec(),
    }
    .run_fold(
        MetricStats::collector(&[Metric::Collisions, Metric::CwSlots]),
        &SweepHooks::none(),
    );
    let phy = Phy80211g::paper_defaults();
    for payload in [64u32, 1024] {
        let mac_cells = Sweep::<MacSim> {
            experiment: "model-mac",
            config: MacConfig::paper(AlgorithmKind::Beb, payload),
            algorithms: paper_algorithms(),
            ns: vec![n],
            trials,
            exec: opts.exec(),
        }
        .run_fold(
            MetricStats::collector(&[Metric::TotalTimeUs]),
            &SweepHooks::none(),
        );
        let model = CostModel::for_payload(&phy, payload);
        let mut rows = Vec::new();
        let mut predicted: Vec<(String, f64)> = Vec::new();
        let mut measured: Vec<(String, f64)> = Vec::new();
        for &alg in &AlgorithmKind::PAPER_SET {
            let abs = &folded(&abs_cells, alg, n).acc;
            let c = abs.point(n as f64, Metric::Collisions).median;
            let w = abs.point(n as f64, Metric::CwSlots).median;
            let pred = model.total_time(c as u64, w as u64).as_micros_f64();
            let meas = folded(&mac_cells, alg, n)
                .acc
                .point(n as f64, Metric::TotalTimeUs)
                .median;
            predicted.push((alg.label(), pred));
            measured.push((alg.label(), meas));
            rows.push(vec![
                alg.label(),
                format!("{c:.0}"),
                format!("{w:.0}"),
                format!("{pred:.0}"),
                format!("{meas:.0}"),
            ]);
        }
        report.line(format!("payload {payload} B, n = {n}:"));
        report.line(render(
            &[
                "algorithm".into(),
                "C (abstract)".into(),
                "W (abstract)".into(),
                "model T_A µs".into(),
                "MAC total µs".into(),
            ],
            &rows,
        ));
        let best = |v: &[(String, f64)]| {
            v.iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("non-empty")
                .0
                .clone()
        };
        report.line(format!(
            "model predicts {} wins; MAC measures {} winning",
            best(&predicted),
            best(&measured)
        ));
        report.line("");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_report_contains_both_checks() {
        let opts = Options {
            trials: Some(4),
            threads: Some(2),
            ..Options::default()
        };
        let r = run(&opts);
        assert!(r.body.contains("predicted order"));
        assert!(r.body.contains("model predicts"));
    }
}
