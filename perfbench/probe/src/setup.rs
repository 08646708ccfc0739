//! `setup_s` for the in-process workloads: the one-off cost before the
//! first trial runs — option parsing and every grid the workload sweeps,
//! the worker pool's first hand-off, and one warm-up trial per backend on
//! a fresh arena at the workload's largest `n`. Measured from process
//! start, so each sample is a cold start.

use crate::passes::{workload_experiments, workload_opts};
use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::ChannelModel;
use contention_experiments::figures::sharding::find_shardable;
use contention_mac::{MacConfig, MacSim};
use contention_sim::engine::run_trial;
use contention_slotted::dynamic::{ArrivalProcess, DynamicConfig, DynamicSim};
use contention_slotted::noisy::NoisyConfig;
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::{NoisySim, WindowedSim};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub fn run(workload: &str) -> Result<f64, String> {
    let started = Instant::now();
    let opts = workload_opts(workload, Path::new("setup-unused"))?;
    let mut largest_n = 0;
    for name in workload_experiments(workload) {
        if let Some(entry) = find_shardable(name) {
            let grid = black_box((entry.grid)(&opts));
            largest_n = largest_n.max(grid.ns.iter().copied().max().unwrap_or(0));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The persistent pool spawns its workers on the first submission.
    contention_sim::pool::run(nproc, &|| {});
    let beb = AlgorithmKind::Beb;
    match workload {
        // Windowed is the only backend `scale` runs; its largest n is 10⁶.
        "scale_1e6" => {
            let config = WindowedConfig::abstract_model(beb);
            black_box(run_trial::<WindowedSim>("scale", &config, largest_n, 0));
        }
        // The paper figures run every backend; the MAC and slotted grids
        // top out at the MAC ladder's n = 150 (dynamic sweeps have no
        // station axis).
        _ => {
            let n = opts.mac_ns().into_iter().max().unwrap_or(150);
            black_box(run_trial::<MacSim>(
                "mac-64",
                &MacConfig::paper(beb, 64),
                n,
                0,
            ));
            let windowed = WindowedConfig::abstract_model(beb);
            black_box(run_trial::<WindowedSim>("fig5", &windowed, n, 0));
            let noisy = NoisyConfig::abstract_model(beb, ChannelModel::softened(0.5));
            black_box(run_trial::<NoisySim>("soften", &noisy, n, 0));
            let dynamic = DynamicConfig::abstract_model(
                beb,
                ArrivalProcess::PoissonBursts {
                    rate: 0.000_8,
                    size: 60,
                },
            );
            black_box(run_trial::<DynamicSim>("dynamic", &dynamic, 0, 0));
        }
    }
    Ok(started.elapsed().as_secs_f64())
}
