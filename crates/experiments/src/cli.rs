//! The `repro` command-line interface.
//!
//! ```text
//! repro <experiment|all|list> [--full] [--trials N] [--out DIR] [--json]
//!       [--threads N]
//! repro shard <experiment> --shard i/N --out DIR   # partial-state artifact
//! repro merge DIR... --out DIR [--json]            # recombine + report
//! repro <experiment> --checkpoint --out DIR        # crash-safe long run
//! repro resume DIR [--json]                        # continue from checkpoint
//! repro serve <experiment> --out DIR [--json] [--port P] [--leases N]
//!       [--lease-secs S] [--linger-secs S]         # distributed coordinator
//! repro work --connect HOST:PORT [--threads N]     # pull-based worker
//! ```
//!
//! Default grids are laptop-quick; `--full` switches to the paper's grids
//! (and turns on the stderr progress meter when stderr is a TTY). With
//! `--out DIR` each experiment also writes CSV series for plotting;
//! `--json` adds JSON artifacts next to them.
//!
//! `shard`/`merge` split a sweep across processes: each `shard` invocation
//! runs one contiguous cell range of the experiment's grid and writes a
//! `shard_state/v1` artifact; `merge` validates and merges any number of
//! such artifacts and emits the **same reports, byte for byte,** as the
//! single-process run (see `crate::shard`). Checkpointed runs, `resume`
//! and `serve` fold through the same state and share its reporting tail.
//!
//! The actual binary lives in the workspace root package (`src/bin/repro.rs`)
//! so that a plain `cargo run --bin repro` works from the repository root;
//! this module holds all of its logic so it stays unit-testable here.

use crate::checkpoint::{self, CheckpointWriter};
use crate::figures::sharding::{grid_experiment, ShardableEntry};
use crate::figures::shared::SweepHooks;
use crate::figures::{Report, EXPERIMENTS};
use crate::options::Options;
use crate::shard::{load_dir, merge_states, write_state, ShardState};
use contention_sim::engine::CellRange;
use contention_sim::monitor::SnapshotCadence;
use std::path::Path;
use std::process::ExitCode;

/// Entry point: parses `args` (without the program name) and runs the
/// selected experiments.
pub fn run(args: &[String]) -> ExitCode {
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let (sub, opts) = match Options::parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    match dispatch(&sub, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs subcommand `sub`; an `Err` is printed as `error: …` by [`run`].
fn dispatch(sub: &str, opts: &Options) -> Result<(), String> {
    if sub == "list" {
        for e in EXPERIMENTS {
            println!("{:<12} {}", e.name(), e.about());
        }
        return Ok(());
    }
    // Fail fast on an unusable output directory — before hours of trials,
    // not after them (the late-error pathology `--json` used to have).
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --out {}: {e}", dir.display()))?;
    }
    match sub {
        "shard" => return run_shard(opts),
        "merge" => return run_merge(opts),
        "resume" => return run_resume(opts),
        "serve" => return crate::server::Server::serve(opts),
        "work" => return crate::worker::run_worker(opts),
        _ if opts.checkpoint.is_some() => return run_checkpointed(sub, opts),
        _ => {}
    }

    // `Options::parse` has checked that `sub` names an experiment or `all`.
    for experiment in EXPERIMENTS
        .iter()
        .filter(|e| sub == "all" || e.name() == sub)
    {
        let name = experiment.name();
        let started = std::time::Instant::now();
        let report = experiment.run(opts);
        report.print();
        if let Some(dir) = &opts.out_dir {
            write_report_artifacts(&report, dir, opts.json)?;
            println!(
                "[{}] {} written to {}",
                name,
                if opts.json { "CSVs + JSON" } else { "CSVs" },
                dir.display()
            );
        }
        println!("[{}] done in {:.1?}\n", name, started.elapsed());
    }
    Ok(())
}

/// Writes a report's CSV (and optionally JSON) artifacts into `dir`.
pub(crate) fn write_report_artifacts(
    report: &Report,
    dir: &Path,
    json: bool,
) -> Result<(), String> {
    report.write_csv(dir)?;
    if json {
        report.write_json(dir)?;
    }
    Ok(())
}

/// The reporting tail of every path that ends in a [`ShardState`] —
/// checkpointed runs, merge, resume and serve: requires the state complete
/// (else `problem`, followed by the first few cells it still misses),
/// builds the experiment's report under the options the state records,
/// prints it and writes its artifacts into `dir`. Returns what it wrote,
/// for the caller's closing line.
pub(crate) fn report_state(
    state: &ShardState,
    entry: &ShardableEntry,
    problem: &str,
    dir: &Path,
    json: bool,
) -> Result<&'static str, String> {
    if !state.is_complete() {
        let mut message = problem.to_string();
        for missing in state.missing().iter().take(8) {
            message.push_str(&format!("\n  {missing}"));
        }
        return Err(message);
    }
    let report = (entry.report)(
        &Options::for_grid(state.full, state.grid.trials),
        &state.cells,
    );
    report.print();
    write_report_artifacts(&report, dir, json)?;
    Ok(if json { "CSVs + JSON" } else { "CSVs" })
}

/// Runs the trials `state` has not recorded — every trial of a fresh
/// state — and absorbs them, checkpointing into `dir` on `cadence` with
/// `state` folded into every checkpoint, so an interruption loses nothing.
fn run_missing(
    state: &mut ShardState,
    entry: &ShardableEntry,
    opts: &Options,
    dir: &Path,
    cadence: SnapshotCadence,
) -> Result<(), String> {
    let writer = CheckpointWriter::new(dir, &state.experiment, state.full, state.grid.clone())?
        .with_base(state.clone());
    let plan = state.missing_work();
    let hooks = SweepHooks {
        missing: Some(&plan),
        monitor: Some((cadence, &writer)),
        ..SweepHooks::default()
    };
    let fresh = (entry.cells)(opts, &hooks);
    let fresh = ShardState::from_cells(
        &state.experiment,
        state.full,
        state.shard,
        &state.grid,
        &fresh,
    );
    state.absorb(fresh, false).map(drop)
}

/// `repro <experiment> --checkpoint[-secs/-trials N] --out DIR`: the normal
/// single-experiment run, with a [`CheckpointWriter`] attached to the
/// engine's snapshot seam. Requires a grid experiment — checkpoints ride
/// the same cells/report halves and `shard_state/v1` artifact as
/// `repro shard`.
fn run_checkpointed(sub: &str, opts: &Options) -> Result<(), String> {
    let entry = grid_experiment(sub)?;
    let dir = opts.out_dir.as_deref().expect("validated at parse time");
    let cadence = opts.checkpoint.expect("checkpointed run").cadence();
    let started = std::time::Instant::now();
    let grid = (entry.grid)(opts);
    let mut state = ShardState::from_cells(entry.name, opts.full, (0, 1), &grid, &[]);
    run_missing(&mut state, &entry, opts, dir, cadence)?;
    let problem = "checkpointed run is incomplete";
    let wrote = report_state(&state, &entry, problem, dir, opts.json)?;
    println!(
        "[{}] {wrote} + checkpoints written to {}",
        entry.name,
        dir.display()
    );
    println!("[{}] done in {:.1?}\n", entry.name, started.elapsed());
    Ok(())
}

/// `repro resume DIR [--json]`: loads the newest valid checkpoint under
/// `DIR/checkpoints/`, checks it against this build's grid, runs only the
/// trials it is missing (per-trial RNG is position-addressed, so those
/// trials are bit-identical to what the interrupted run would have
/// produced), absorbs them, and emits the experiment's reports into `DIR` —
/// byte-identical to an uninterrupted run.
fn run_resume(opts: &Options) -> Result<(), String> {
    let dir = Path::new(&opts.inputs[0]);
    let loaded = checkpoint::load_latest(dir)?;
    // Recovery that stepped over damage (a dangling `latest` pointer, torn
    // artifacts) still works — but never silently.
    for warning in &loaded.warnings {
        eprintln!("warning: {warning}");
    }
    let mut state = loaded.state;
    let entry = state.check_build()?;
    let total = state.grid.cell_count() * state.grid.trials as usize;
    let recorded = state.recorded();
    let name = state.experiment.clone();
    println!(
        "[resume] {name} from checkpoint seq {}: {recorded} of {total} trials recorded, \
         {} to run",
        loaded.seq,
        total - recorded
    );
    let started = std::time::Instant::now();
    if recorded < total {
        // --threads may differ freely from the original run: results are
        // independent of it.
        let run_opts = Options {
            threads: opts.threads,
            ..Options::for_grid(state.full, state.grid.trials)
        };
        let cadence = opts.checkpoint.unwrap_or_default().cadence();
        run_missing(&mut state, &entry, &run_opts, dir, cadence)?;
    }
    let problem = "resumed state is still incomplete — corrupt checkpoint?";
    let wrote = report_state(&state, &entry, problem, dir, opts.json)?;
    println!(
        "[resume] {name} complete: {wrote} written to {} in {:.1?}",
        dir.display(),
        started.elapsed()
    );
    Ok(())
}

/// `repro shard <experiment> --shard i/N --out DIR`: runs shard `i`'s cell
/// range of the experiment's grid and writes the partial-state artifact.
fn run_shard(opts: &Options) -> Result<(), String> {
    let name = &opts.inputs[0];
    let entry = grid_experiment(name)?;
    let (index, of) = opts.shard.expect("validated at parse time");
    let grid = (entry.grid)(opts);
    let total = grid.cell_count();
    // Cost-balanced: shard boundaries split the grid's *estimated work*
    // (cell cost × trials), so no shard is stuck with all the heavy cells.
    // Merge accepts any contiguous tiling, so mixed-version shard runs
    // still reassemble — as long as every index ran under the same binary.
    let range = CellRange::shard_weighted(&grid.cell_costs(), index as usize, of as usize);
    let started = std::time::Instant::now();
    let cells = (entry.cells)(opts, &SweepHooks::range(Some(range)));
    let state = ShardState::from_cells(entry.name, opts.full, (index, of), &grid, &cells);
    let dir = opts.out_dir.as_deref().expect("validated at parse time");
    let path = write_state(dir, &state)?;
    println!(
        "[shard] {name} shard {index}/{of}: cells [{}, {}) of {total} → {} in {:.1?}",
        range.lo,
        range.hi,
        path.display(),
        started.elapsed()
    );
    Ok(())
}

/// `repro merge DIR... --out DIR [--json]`: loads every shard artifact in
/// the given directories, merges them, checks the result against this
/// build's grid, and emits the experiment's reports exactly as a
/// single-process `repro <experiment> --out DIR` would.
fn run_merge(opts: &Options) -> Result<(), String> {
    let mut states = Vec::new();
    for dir in &opts.inputs {
        states.extend(load_dir(Path::new(dir))?);
    }
    let count = states.len();
    let denominator = states.first().map_or(1, |s| s.shard.1);
    let merged = merge_states(states)?;
    let entry = merged.check_build()?;
    let problem = format!("merged state is incomplete — did you merge all {denominator} shards?");
    let dir = opts.out_dir.as_deref().expect("validated at parse time");
    let wrote = report_state(&merged, &entry, &problem, dir, opts.json)?;
    println!(
        "[merge] {count} artifacts → {} {wrote} written to {}",
        merged.experiment,
        dir.display()
    );
    Ok(())
}

/// Entry point over the process arguments.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}

fn print_usage() {
    println!(
        "usage: repro <experiment|all|list> [--full] [--trials N] [--out DIR] [--json] \
         [--threads N]"
    );
    println!("       repro shard <experiment> --shard i/N --out DIR   (partial-state artifact)");
    println!("       repro merge DIR... --out DIR [--json]            (recombine + report)");
    println!("       repro <experiment> --checkpoint --out DIR        (crash-safe long run)");
    println!("       repro resume DIR [--json]                        (continue from checkpoint)");
    println!("       repro serve <experiment> --out DIR [--json] [--port P] [--leases N]");
    println!("                   [--lease-secs S] [--linger-secs S]   (distributed coordinator)");
    println!("       repro work --connect HOST:PORT [--threads N]     (pull-based worker)");
    println!();
    println!("  --full      use the paper's grids (minutes) instead of quick ones (seconds);");
    println!("              prints trials-completed progress + ETA to stderr when it is a TTY");
    println!("  --trials N  override the trial count");
    println!("  --out DIR   also write CSV series to DIR");
    println!("  --json      also write JSON artifacts to DIR (needs --out)");
    println!("  --threads N worker threads (default: all cores; 1 runs inline in a fixed");
    println!("              claim order; results are bit-identical at any count)");
    println!("  --shard i/N run only cell shard i of N, split by estimated work (shard");
    println!("              subcommand; merged output is byte-identical to one process)");
    println!("  --checkpoint           snapshot in-flight state into DIR/checkpoints/ and");
    println!("                         refresh DIR/metrics.json (default: every 30 s)");
    println!("  --checkpoint-secs N    snapshot every N seconds (implies --checkpoint)");
    println!("  --checkpoint-trials N  snapshot every N completed trials (implies it too;");
    println!("                         resumed reports are byte-identical to uninterrupted)");
    println!(
        "  --port P        serve: listen port (default {}; 0 = ephemeral)",
        crate::server::DEFAULT_PORT
    );
    println!(
        "  --leases N      serve: cut the sweep into N cost-weighted leases (default {})",
        crate::server::DEFAULT_LEASES
    );
    println!(
        "  --lease-secs S  serve: re-issue a lease not completed within S s (default {})",
        crate::server::DEFAULT_LEASE_SECS
    );
    println!(
        "  --linger-secs S serve: answer `done` for S s after completion (default {})",
        crate::server::DEFAULT_LINGER_SECS
    );
    println!("  --connect H:P   work: the coordinator to pull leases from");
    println!();
    println!("experiments:");
    for e in EXPERIMENTS {
        println!("  {:<12} {}", e.name(), e.about());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::aggregate::MetricStats;
    use crate::figures::sharding::find_shardable;
    use crate::summary::Metric;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Well-formed but wrong `fig6` artifacts (quick grid, two trials), each
    /// named: every untrusted entry point must refuse all of them cleanly.
    pub(crate) fn hostile_fig6_artifacts() -> Vec<(&'static str, String)> {
        let opts = Options::for_grid(false, 2);
        let entry = find_shardable("fig6").expect("fig6 is a grid experiment");
        let grid = (entry.grid)(&opts);
        let cells = (entry.cells)(&opts, &SweepHooks::none());
        let good = ShardState::from_cells("fig6", false, (0, 1), &grid, &cells);
        let text = good.to_json();
        let mut dropped = good.clone();
        dropped.grid.metrics = vec![Metric::CwSlots];
        for cell in &mut dropped.cells {
            cell.acc = cell.acc.project(&[Metric::CwSlots]);
        }
        let mut zero = good;
        zero.grid.trials = 0;
        for cell in &mut zero.cells {
            cell.acc = MetricStats::new(&grid.metrics, 0);
        }
        // Unrecord trial 1 of the first cell's first metric only.
        let buffer = text.find("\"samples\": [[").expect("a cell");
        let end = buffer + text[buffer..].find(']').expect("a buffer");
        let last = text[..end].rfind(", ").expect("two trials");
        vec![
            (
                "swapped metric order",
                text.replace(
                    "\"half_cw_slots\", \"cw_slots\"",
                    "\"cw_slots\", \"half_cw_slots\"",
                ),
            ),
            ("dropped metric", dropped.to_json()),
            (
                "foreign ns",
                text.replace(" 150]", " 151]")
                    .replace("\"n\": 150,", "\"n\": 151,"),
            ),
            ("zero trials", zero.to_json()),
            (
                "repeated n",
                text.replace("\"ns\": [10,", "\"ns\": [10, 10,"),
            ),
            (
                "torn trial",
                format!("{}, null{}", &text[..last], &text[end..]),
            ),
        ]
    }

    #[test]
    fn unknown_experiment_fails() {
        assert_eq!(run(&strs(&["no-such-figure"])), ExitCode::FAILURE);
    }

    #[test]
    fn bad_flag_fails() {
        assert_eq!(run(&strs(&["fig3", "--bogus"])), ExitCode::FAILURE);
    }

    #[test]
    fn list_and_help_succeed() {
        assert_eq!(run(&strs(&["list"])), ExitCode::SUCCESS);
        assert_eq!(run(&strs(&["--help"])), ExitCode::SUCCESS);
        assert_eq!(run(&[]), ExitCode::SUCCESS);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn shard_rejects_unshardable_experiments() {
        let out = temp_dir("unshardable");
        // fig13 is a single deterministic trace — a direct runner, not a
        // grid experiment.
        assert_eq!(
            run(&strs(&[
                "shard",
                "fig13",
                "--shard",
                "0/2",
                "--out",
                out.to_str().unwrap()
            ])),
            ExitCode::FAILURE
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn merge_rejects_empty_and_incomplete_inputs() {
        let empty = temp_dir("merge-empty");
        std::fs::create_dir_all(&empty).unwrap();
        let out = temp_dir("merge-out");
        // A directory with no artifacts fails cleanly.
        assert_eq!(
            run(&strs(&[
                "merge",
                empty.to_str().unwrap(),
                "--out",
                out.to_str().unwrap()
            ])),
            ExitCode::FAILURE
        );
        // One shard of two merges but is incomplete → clean failure, no
        // report written.
        let shard_dir = temp_dir("merge-partial");
        assert_eq!(
            run(&strs(&[
                "shard",
                "fig5",
                "--trials",
                "2",
                "--threads",
                "2",
                "--shard",
                "0/2",
                "--out",
                shard_dir.to_str().unwrap()
            ])),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&strs(&[
                "merge",
                shard_dir.to_str().unwrap(),
                "--out",
                out.to_str().unwrap()
            ])),
            ExitCode::FAILURE
        );
        assert!(!out.join("fig5_cw_slots_abstract.csv").exists());
        for dir in [empty, out, shard_dir] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn shard_then_merge_reproduces_the_direct_csv() {
        let direct = temp_dir("direct");
        let merged = temp_dir("merged");
        let shards = temp_dir("shards");
        assert_eq!(
            run(&strs(&[
                "fig5",
                "--trials",
                "2",
                "--threads",
                "2",
                "--out",
                direct.to_str().unwrap()
            ])),
            ExitCode::SUCCESS
        );
        for i in 0..2 {
            assert_eq!(
                run(&strs(&[
                    "shard",
                    "fig5",
                    "--trials",
                    "2",
                    "--threads",
                    "2",
                    "--shard",
                    &format!("{i}/2"),
                    "--out",
                    shards.to_str().unwrap()
                ])),
                ExitCode::SUCCESS
            );
        }
        assert_eq!(
            run(&strs(&[
                "merge",
                shards.to_str().unwrap(),
                "--out",
                merged.to_str().unwrap()
            ])),
            ExitCode::SUCCESS
        );
        let read = |d: &std::path::Path| {
            std::fs::read_to_string(d.join("fig5_cw_slots_abstract.csv")).unwrap()
        };
        assert_eq!(read(&direct), read(&merged), "merged CSV diverged");
        for dir in [direct, merged, shards] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn checkpoint_rejects_unshardable_experiments() {
        let out = temp_dir("ckpt-unshardable");
        assert_eq!(
            run(&strs(&[
                "fig13",
                "--checkpoint",
                "--out",
                out.to_str().unwrap()
            ])),
            ExitCode::FAILURE
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn resume_fails_cleanly_without_checkpoints() {
        let dir = temp_dir("resume-none");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            run(&strs(&["resume", dir.to_str().unwrap()])),
            ExitCode::FAILURE
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_writes_artifacts_and_resume_of_complete_state_matches() {
        let direct = temp_dir("ckpt-direct");
        let ckpt = temp_dir("ckpt-run");
        assert_eq!(
            run(&strs(&[
                "fig5",
                "--trials",
                "2",
                "--threads",
                "2",
                "--out",
                direct.to_str().unwrap()
            ])),
            ExitCode::SUCCESS
        );
        assert_eq!(
            run(&strs(&[
                "fig5",
                "--trials",
                "2",
                "--threads",
                "2",
                "--checkpoint-trials",
                "1",
                "--out",
                ckpt.to_str().unwrap()
            ])),
            ExitCode::SUCCESS
        );
        let read = |d: &std::path::Path| {
            std::fs::read_to_string(d.join("fig5_cw_slots_abstract.csv")).unwrap()
        };
        assert_eq!(
            read(&direct),
            read(&ckpt),
            "checkpointing changed the results"
        );
        // The live-metrics sidecar reports the finished run.
        let doc = crate::checkpoint::MetricsDoc::parse(
            &std::fs::read_to_string(ckpt.join(crate::checkpoint::METRICS_FILE)).unwrap(),
        )
        .unwrap();
        assert!(doc.finished);
        assert_eq!(doc.trials_done, doc.trials_total);
        // The final checkpoint is complete, so resume has nothing to run —
        // and rebuilds the identical report artifacts from the artifact.
        std::fs::remove_file(ckpt.join("fig5_cw_slots_abstract.csv")).unwrap();
        assert_eq!(
            run(&strs(&["resume", ckpt.to_str().unwrap()])),
            ExitCode::SUCCESS
        );
        assert_eq!(read(&direct), read(&ckpt), "resume rebuild diverged");
        for dir in [direct, ckpt] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A `fig6` artifact whose metric names trade places, or which drops
    /// one metric, describes a grid this build does not run: merge refuses
    /// it and names the mismatch, instead of reporting swapped columns or
    /// panicking on the missing metric.
    #[test]
    fn merge_rejects_artifacts_off_this_builds_grid() {
        let hostile = hostile_fig6_artifacts();
        for (case, text) in hostile.iter().take(2) {
            let dir = temp_dir(&format!("merge-foreign-{}", case.replace(' ', "-")));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("fig6.s0of1.shardstate.json"), text).unwrap();
            let out = dir.join("out");
            let args = strs(&[
                "merge",
                dir.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ]);
            let (_, opts) = Options::parse(&args).unwrap();
            let err = run_merge(&opts).unwrap_err();
            assert!(
                err.contains("artifact grid does not match \"fig6\"'s grid")
                    && err.contains("metrics ["),
                "{case}: {err}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
