//! The workload passes: the in-process figure workloads (`paper_figs`,
//! `scale_1e6`) and the work-server worker loop (`serve_fig3`), each with
//! spans at the calls into the experiments, engine, aggregate, artifact and
//! distribution layers, followed (when traced) by replays of the aggregate
//! and artifact calls on the cells the pass produced.

use crate::trace::Tracer;
use contention_experiments::aggregate::{MetricStats, StatsCell};
use contention_experiments::checkpoint::CheckpointWriter;
use contention_experiments::figures::sharding::{find_shardable, ShardableEntry};
use contention_experiments::figures::shared::SweepHooks;
use contention_experiments::figures::{registry, CsvBlock, Report};
use contention_experiments::jsonin::Json;
use contention_experiments::options::Options;
use contention_experiments::server::http_request;
use contention_experiments::shard::{GridMeta, ShardState};
use contention_sim::monitor::{SweepMonitor, SweepSnapshot};
use std::path::Path;
use std::time::Duration;

/// Registry experiments `paper_figs` leaves out: `fig15`/`fig16` re-run one
/// large-n sweep and `scale` is a workload of its own.
const NOT_IN_PAPER_FIGS: [&str; 3] = ["fig15", "fig16", "scale"];

/// Samples each replayed layer call gets, at least.
const MIN_REPLAY_SAMPLES: usize = 100;

/// One shardable experiment's folded cells, kept for the replay phase.
struct Captured {
    entry: ShardableEntry,
    opts: Options,
    cells: Vec<StatsCell>,
}

fn parse_opts(args: &[&str]) -> Result<Options, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    Options::parse(&args).map(|(_, opts)| opts)
}

/// The `repro` options of an in-process workload, writing into `out`.
pub fn workload_opts(workload: &str, out: &Path) -> Result<Options, String> {
    let out = out.to_str().ok_or("output path is not UTF-8")?;
    match workload {
        "paper_figs" => parse_opts(&["all", "--full", "--json", "--out", out]),
        "scale_1e6" => parse_opts(&["scale", "--full", "--trials", "4", "--json", "--out", out]),
        other => Err(format!("no in-process workload {other:?}")),
    }
}

/// The registry experiments an in-process workload runs, in registry order.
pub fn workload_experiments(workload: &str) -> Vec<&'static str> {
    registry()
        .into_iter()
        .map(|(name, _, _)| name)
        .filter(|name| match workload {
            "scale_1e6" => *name == "scale",
            _ => !NOT_IN_PAPER_FIGS.contains(name),
        })
        .collect()
}

/// The files [`write_artifacts`] writes for `report`.
fn artifact_names(report: &Report) -> Vec<String> {
    report
        .csv
        .iter()
        .flat_map(|block| {
            let name = match block {
                CsvBlock::Series { name, .. } | CsvBlock::Rows { name, .. } => name,
            };
            [format!("{name}.csv"), format!("{name}.json")]
        })
        .collect()
}

fn write_artifacts(report: &Report, dir: &Path) -> Result<(), String> {
    report.write_csv(dir)?;
    report.write_json(dir)
}

/// Runs an in-process workload the way `repro all` runs experiments: each
/// report printed to stdout, then its CSV + JSON artifacts written. With
/// tracing on, a shardable experiment runs as its two halves (cells, then
/// report — byte-identical to the registry runner) so the engine and the
/// aggregate layer each get a span.
pub fn figures(workload: &str, out: &Path, tr: &mut Tracer) -> Result<(), String> {
    let opts = workload_opts(workload, out)?;
    let names = workload_experiments(workload);
    let mut captured = Vec::new();
    tr.span("pass", |tr| -> Result<(), String> {
        for (name, _, runner) in registry() {
            if !names.contains(&name) {
                continue;
            }
            let report = match find_shardable(name).filter(|_| tr.enabled()) {
                Some(entry) => tr.span(&format!("figures.{name}"), |tr| {
                    let cells = tr.span("engine.sweep", |_| {
                        (entry.cells)(&opts, &SweepHooks::none())
                    });
                    let report = tr.span("aggregate.report", |_| (entry.report)(&opts, &cells));
                    captured.push(Captured {
                        entry,
                        opts: opts.clone(),
                        cells,
                    });
                    report
                }),
                None => tr.span(&format!("figures.{name}"), |_| runner(&opts)),
            };
            report.print();
            tr.span("io.artifact_write", |_| write_artifacts(&report, out))?;
            println!("[{name}] artifacts: {}", artifact_names(&report).join(" "));
            println!("[{name}] done");
        }
        Ok(())
    })?;
    if tr.enabled() {
        replay(&captured, &out.with_extension("replay"), tr)?;
    }
    Ok(())
}

/// Replays the aggregate, artifact, shard-codec and checkpoint calls on
/// cells a pass produced, outside the pass's timing.
fn replay(captured: &[Captured], dir: &Path, tr: &mut Tracer) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let rounds = MIN_REPLAY_SAMPLES.div_ceil(captured.len().max(1));
    tr.span("replay", |tr| {
        for c in captured {
            let grid = (c.entry.grid)(&c.opts);
            let writer = CheckpointWriter::new(dir, c.entry.name, c.opts.full, grid.clone())?;
            for _ in 0..rounds {
                let report = tr.span("aggregate.report", |_| (c.entry.report)(&c.opts, &c.cells));
                tr.span("io.artifact_write", |_| write_artifacts(&report, dir))?;
                let state =
                    ShardState::from_cells(c.entry.name, c.opts.full, (0, 1), &grid, &c.cells);
                let text = tr.span_work("shard.encode", |_| {
                    let text = state.to_json();
                    let bytes = text.len() as u64;
                    (text, bytes)
                });
                tr.span("shard.parse", |_| ShardState::parse(&text))?;
                let snap = snapshot(&c.cells, &grid);
                tr.span("checkpoint.write", |_| writer.snapshot(snap));
            }
        }
        Ok(())
    })
}

/// The snapshot the coordinator checkpoints after folding `cells`.
fn snapshot(cells: &[StatsCell], grid: &GridMeta) -> SweepSnapshot<MetricStats> {
    let total = grid.cell_count() * grid.trials as usize;
    let recorded: usize = cells
        .iter()
        .map(|c| {
            c.acc
                .raw_samples()
                .iter()
                .map(|s| s.filled())
                .min()
                .unwrap_or(0)
        })
        .sum();
    SweepSnapshot {
        cells: cells.to_vec(),
        completed_trials: recorded,
        total_trials: total,
        elapsed: Duration::from_secs(1),
        workers: 1,
        finished: recorded == total,
    }
}

/// One decoded `GET /lease` reply.
enum Reply {
    Lease {
        id: u64,
        experiment: String,
        full: bool,
        trials: u32,
        plan: Vec<(usize, Vec<u32>)>,
    },
    Wait(Duration),
    Done,
}

fn decode(body: &str) -> Result<Reply, String> {
    let json = Json::parse(body)?;
    match json.field("status")?.as_str()? {
        "done" => Ok(Reply::Done),
        "wait" => {
            let ms = json
                .field("retry_ms")
                .and_then(Json::as_f64)
                .unwrap_or(200.0);
            Ok(Reply::Wait(Duration::from_millis(ms.max(0.0) as u64)))
        }
        "lease" => {
            // One sorted plan entry per cell: the engine's sparse-plan seam
            // takes each cell once.
            let mut plan: Vec<(usize, Vec<u32>)> = Vec::new();
            for range in json.field("work")?.as_array()? {
                let r = range.as_array()?;
                if r.len() != 3 {
                    return Err(format!("bad work range in {body}"));
                }
                let cell = r[0].as_u32()? as usize;
                let trials = r[1].as_u32()?..r[2].as_u32()?;
                match plan.iter_mut().find(|(c, _)| *c == cell) {
                    Some((_, ts)) => ts.extend(trials),
                    None => plan.push((cell, trials.collect())),
                }
            }
            for (_, ts) in &mut plan {
                ts.sort_unstable();
                ts.dedup();
            }
            plan.sort_by_key(|&(c, _)| c);
            Ok(Reply::Lease {
                id: json.field("id")?.as_f64()? as u64,
                experiment: json.field("experiment")?.as_str()?.to_string(),
                full: json.field("full")?.as_bool()?,
                trials: json.field("trials")?.as_u32()?,
                plan,
            })
        }
        other => Err(format!("unknown lease status {other:?}")),
    }
}

/// A `repro work --threads 1` equivalent that times each exchange at the
/// request boundary: lease claim, lease compute (sweep + artifact encode),
/// result POST. With tracing on, the posted artifacts are then replayed
/// through parse, the coordinator's fold and a checkpoint write, and the
/// final cells through report and artifact writes, into `replay_dir`.
pub fn serve_worker(addr: &str, replay_dir: &Path, tr: &mut Tracer) -> Result<(), String> {
    let mut posted: Vec<(ShardableEntry, Options, String)> = Vec::new();
    tr.span("pass", |tr| -> Result<(), String> {
        loop {
            let (status, body) =
                tr.span("lease.get", |_| http_request(addr, "GET", "/lease", None))?;
            if status != 200 {
                return Err(format!("lease claim answered {status}: {body}"));
            }
            let (id, experiment, full, trials, plan) = match decode(&body)? {
                Reply::Done => return Ok(()),
                Reply::Wait(pause) => {
                    std::thread::sleep(pause);
                    continue;
                }
                Reply::Lease {
                    id,
                    experiment,
                    full,
                    trials,
                    plan,
                } => (id, experiment, full, trials, plan),
            };
            // The same line `repro work` prints, which run.py counts.
            println!("[work] lease {id}: {} cells of {experiment}", plan.len());
            let entry = find_shardable(&experiment)
                .ok_or_else(|| format!("leased unknown experiment {experiment:?}"))?;
            let opts = Options {
                full,
                trials: Some(trials),
                threads: Some(1),
                ..Options::default()
            };
            let artifact = tr.span("worker.lease_compute", |tr| {
                let grid = (entry.grid)(&opts);
                let hooks = SweepHooks {
                    missing: Some(&plan),
                    ..SweepHooks::default()
                };
                let cells = tr.span("engine.sweep", |_| (entry.cells)(&opts, &hooks));
                let state = ShardState::from_cells(&experiment, full, (0, 1), &grid, &cells);
                tr.span_work("shard.encode", |_| {
                    let text = state.to_json();
                    let bytes = text.len() as u64;
                    (text, bytes)
                })
            });
            let path = format!("/result/{id}");
            let (status, reply) = tr.span("result.post", |_| {
                http_request(addr, "POST", &path, Some(&artifact))
            })?;
            if status != 200 {
                return Err(format!("lease {id} result answered {status}: {reply}"));
            }
            if tr.enabled() {
                posted.push((entry, opts, artifact));
            }
        }
    })?;
    if tr.enabled() {
        replay_posts(&posted, replay_dir, tr)?;
    }
    Ok(())
}

/// Replays the coordinator's per-POST work from outside it: parse the
/// artifact, fold it into a master state, checkpoint the master; then the
/// report and artifact writes on the completed master.
fn replay_posts(
    posted: &[(ShardableEntry, Options, String)],
    dir: &Path,
    tr: &mut Tracer,
) -> Result<(), String> {
    let Some((entry, opts, _)) = posted.first() else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let grid = (entry.grid)(opts);
    let writer = CheckpointWriter::new(dir, entry.name, opts.full, grid.clone())?;
    let mut master: Vec<StatsCell> = Vec::new();
    tr.span("replay", |tr| -> Result<(), String> {
        for (_, _, text) in posted {
            let state = tr.span("shard.parse", |_| ShardState::parse(text))?;
            for cell in state.into_cells() {
                match master
                    .iter_mut()
                    .find(|c| c.algorithm == cell.algorithm && c.n == cell.n)
                {
                    Some(mine) => {
                        mine.acc.try_merge_dedup(cell.acc)?;
                    }
                    None => master.push(cell),
                }
            }
            master.sort_by_key(|c| {
                let a = grid.algorithms.iter().position(|&x| x == c.algorithm);
                let i = grid.ns.iter().position(|&x| x == c.n);
                (a, i)
            });
            let snap = snapshot(&master, &grid);
            tr.span("checkpoint.write", |_| writer.snapshot(snap));
        }
        let report_opts = Options {
            full: opts.full,
            trials: Some(grid.trials),
            ..Options::default()
        };
        for _ in 0..MIN_REPLAY_SAMPLES {
            let report = tr.span("aggregate.report", |_| {
                (entry.report)(&report_opts, &master)
            });
            tr.span("io.artifact_write", |_| write_artifacts(&report, dir))?;
        }
        Ok(())
    })
}
