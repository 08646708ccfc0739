//! The sweep run state and its `shard_state/v1` artifact.
//!
//! [`ShardState`] is the one state every path that runs or recombines a
//! sweep folds through: the grid description plus the folded per-cell
//! [`MetricStats`] — raw per-trial, per-metric buffers — in canonical grid
//! order. `repro shard` captures one
//! [`CellRange`](contention_sim::engine::CellRange) of it; `repro merge`
//! [absorbs](ShardState::absorb) any set of shard artifacts; a checkpointed
//! run snapshots it; `repro resume` and `repro serve` load it, run its
//! [missing work](ShardState::missing_work) and absorb the results. The
//! rules those paths share — which trials count as recorded, what is still
//! missing, whether two states describe the same sweep, whether a loaded
//! state is one this build runs — exist once, as methods here.
//!
//! Because the buffers are position-addressed and the JSON writer/reader
//! pair is round-trip exact ([`crate::jsonout`] / [`crate::jsonin`]), the
//! merged report is **byte-identical** to a single-process run — the
//! property `tests/shard_equivalence.rs` pins across backends, shard counts
//! and cost tables.
//!
//! Artifact shape (`<experiment>.s<i>of<N>.shardstate.json`):
//!
//! ```json
//! {
//!   "schema": "shard_state/v1",
//!   "experiment": "fig5",
//!   "full": false,
//!   "trials": 3,
//!   "cost": "n-log-n",
//!   "shard": [0, 3],
//!   "metrics": ["cw_slots"],
//!   "algorithms": ["beb", "lb", "llb", "stb"],
//!   "ns": [10, 50, 100, 150],
//!   "cells": [
//!     {"algorithm": "beb", "n": 10, "samples": [[53, 31, 57]]}
//!   ]
//! }
//! ```
//!
//! `samples` is one array per metric (in `metrics` order) of per-trial
//! values in trial order; an unrecorded trial slot is `null` (the NaN
//! sentinel), so partial state survives the round trip. A complete state —
//! what `merge` produces — is written as shard `[0, 1]`.

use crate::aggregate::{MetricStats, StatsCell};
use crate::figures::sharding::{grid_experiment, ShardableEntry};
use crate::jsonin::Json;
use crate::jsonout::{escape, num};
use crate::options::Options;
use crate::summary::Metric;
use contention_core::algorithm::AlgorithmKind;
use contention_core::merge::MergeStats;
use contention_sim::sched::{CostModel, CostSpec};
use contention_stats::stream::StreamingSample;
use std::fs;
use std::path::{Path, PathBuf};

/// Schema tag every artifact carries; bumped on layout changes.
pub const SHARD_SCHEMA: &str = "shard_state/v1";

/// File-name suffix `merge` scans directories for.
pub const SHARD_SUFFIX: &str = ".shardstate.json";

/// The sweep-grid coordinates a shardable experiment runs over — enough to
/// partition the grid into cell ranges and to validate artifact
/// compatibility at merge time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridMeta {
    /// Algorithms, in grid (outer) order.
    pub algorithms: Vec<AlgorithmKind>,
    /// Station counts, in grid (inner) order.
    pub ns: Vec<u32>,
    /// Trials per cell.
    pub trials: u32,
    /// Metrics each cell folds out, in buffer order.
    pub metrics: Vec<Metric>,
    /// The analytic per-trial cost shape of this grid's backend — what the
    /// scheduler tapers claims by and `repro shard` balances shards with.
    /// Serialized into artifacts so resumed/merged runs plan work with the
    /// same estimates; artifacts written before cost metadata existed read
    /// back as [`CostSpec::Uniform`].
    pub cost: CostSpec,
}

impl GridMeta {
    /// Number of `(algorithm, n)` cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.algorithms.len() * self.ns.len()
    }

    /// The `(algorithm, n)` of every cell in canonical grid order:
    /// algorithms outer, ns inner — the order a sweep returns cells in.
    fn coords(&self) -> impl Iterator<Item = (AlgorithmKind, u32)> + '_ {
        self.algorithms
            .iter()
            .flat_map(|&alg| self.ns.iter().map(move |&n| (alg, n)))
    }

    /// The canonical index of cell `(algorithm, n)` (its position in
    /// [`GridMeta::coords`] order), or `None` off the grid.
    pub fn index(&self, algorithm: AlgorithmKind, n: u32) -> Option<usize> {
        let a = self.algorithms.iter().position(|&x| x == algorithm)?;
        let i = self.ns.iter().position(|&x| x == n)?;
        Some(a * self.ns.len() + i)
    }

    /// Estimated per-*trial* cost of every cell, in grid order (algorithms
    /// outer, ns inner) — the table the engine's tapered scheduler consumes.
    pub fn cell_trial_costs(&self) -> Vec<f64> {
        self.coords()
            .map(|(alg, n)| self.cost.trial_cost(alg, n))
            .collect()
    }

    /// Estimated *total* cost of every cell (`trials ×` per-trial), in grid
    /// order — what cost-balanced shard partitioning splits.
    pub fn cell_costs(&self) -> Vec<f64> {
        self.coords()
            .map(|(alg, n)| self.cost.cell_cost(alg, n, self.trials))
            .collect()
    }

    /// The first field on which `self` differs from `other`, with both
    /// values — what a grid-mismatch error names.
    fn mismatch(&self, other: &GridMeta) -> String {
        let describe = |g: &GridMeta| {
            let algorithms: Vec<String> = g.algorithms.iter().map(|a| a.key()).collect();
            let metrics: Vec<&str> = g.metrics.iter().map(|m| m.key()).collect();
            [
                format!("trials {}", g.trials),
                format!("metrics {metrics:?}"),
                format!("algorithms {algorithms:?}"),
                format!("ns {:?}", g.ns),
                format!("cost {:?}", g.cost.key()),
            ]
        };
        describe(self)
            .into_iter()
            .zip(describe(other))
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("{a} vs {b}"))
            .unwrap_or_default()
    }
}

/// A partial (or complete) sweep: the grid description plus the folded
/// state of the cells recorded so far.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Registry name of the experiment (`fig5`, `scale`, …) — how `merge`
    /// finds the report builder.
    pub experiment: String,
    /// Whether the run used the paper's `--full` grids.
    pub full: bool,
    /// `(index, of)`: which contiguous shard of the grid this is. A
    /// complete state is `(0, 1)`.
    pub shard: (u32, u32),
    /// The grid the shard belongs to.
    pub grid: GridMeta,
    /// Folded cells in canonical grid order, each on the grid and at most
    /// once; a cell nothing has recorded yet may be absent. Every trial is
    /// recorded for all of a cell's metrics or for none (the engine records
    /// a trial's metrics together under the cell lock, and
    /// [`ShardState::parse`] rejects torn trials).
    pub cells: Vec<StatsCell>,
}

/// Whether `cell` holds trial `t`: a trial counts once every metric holds it.
fn holds(cell: &StatsCell, t: usize) -> bool {
    cell.acc.raw_samples().iter().all(|s| !s.raw()[t].is_nan())
}

impl ShardState {
    /// Captures the folded cells of a (partial) sweep run, in canonical
    /// grid order.
    pub fn from_cells(
        experiment: &str,
        full: bool,
        shard: (u32, u32),
        grid: &GridMeta,
        cells: &[StatsCell],
    ) -> ShardState {
        let mut cells = cells.to_vec();
        for cell in &cells {
            assert_eq!(
                cell.acc.metrics(),
                &grid.metrics[..],
                "cell metrics must match the grid"
            );
        }
        cells.sort_by_key(|c| grid.index(c.algorithm, c.n).expect("cells lie on the grid"));
        ShardState {
            experiment: experiment.to_string(),
            full,
            shard,
            grid: grid.clone(),
            cells,
        }
    }

    /// The engine-shaped folded cells, in canonical grid order.
    pub fn into_cells(self) -> Vec<StatsCell> {
        self.cells
    }

    /// The canonical artifact file name.
    pub fn file_name(&self) -> String {
        format!(
            "{}.s{}of{}{SHARD_SUFFIX}",
            self.experiment, self.shard.0, self.shard.1
        )
    }

    /// Every grid cell in canonical order: its index, coordinates and the
    /// state's cell there, if any.
    fn grid_cells(
        &self,
    ) -> impl Iterator<Item = (usize, (AlgorithmKind, u32), Option<&StatsCell>)> {
        let mut cells = self.cells.iter().peekable();
        self.grid
            .coords()
            .enumerate()
            .map(move |(index, (alg, n))| {
                let cell = cells.next_if(|c| (c.algorithm, c.n) == (alg, n));
                (index, (alg, n), cell)
            })
    }

    /// Trials `cell` has recorded.
    fn recorded_in(&self, cell: &StatsCell) -> usize {
        (0..self.grid.trials as usize)
            .filter(|&t| holds(cell, t))
            .count()
    }

    /// Trials the state has recorded, over all cells.
    pub fn recorded(&self) -> usize {
        self.cells.iter().map(|c| self.recorded_in(c)).sum()
    }

    /// Cost-weighted work the recorded trials represent, in the grid's
    /// [`CostSpec`] units.
    pub fn work(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| self.recorded_in(c) as f64 * self.grid.cost.trial_cost(c.algorithm, c.n))
            .sum()
    }

    /// True once every grid cell is present with every trial recorded.
    pub fn is_complete(&self) -> bool {
        self.cells.len() == self.grid.cell_count() && self.cells.iter().all(|c| c.acc.is_complete())
    }

    /// The work plan that completes the state: for each canonical grid-cell
    /// index, the trials not yet recorded — exactly the engine's
    /// `SweepHooks::missing` plan. Cells with nothing missing are omitted; a
    /// complete state yields an empty plan.
    pub fn missing_work(&self) -> Vec<(usize, Vec<u32>)> {
        self.grid_cells()
            .filter_map(|(index, _, cell)| {
                let missing: Vec<u32> = (0..self.grid.trials)
                    .filter(|&t| !cell.is_some_and(|c| holds(c, t as usize)))
                    .collect();
                (!missing.is_empty()).then_some((index, missing))
            })
            .collect()
    }

    /// Human-readable descriptions of whatever is still missing — the
    /// "did you merge all N shards?" diagnostics.
    pub fn missing(&self) -> Vec<String> {
        let trials = self.grid.trials as usize;
        self.grid_cells()
            .filter_map(|(_, (alg, n), cell)| match cell {
                None => Some(format!("cell ({alg}, n={n}) missing")),
                Some(cell) => {
                    let recorded = self.recorded_in(cell);
                    (recorded < trials).then(|| {
                        format!("cell ({alg}, n={n}): {recorded} of {trials} trials recorded")
                    })
                }
            })
            .collect()
    }

    /// Folds `other` into this state after checking both describe the same
    /// sweep (experiment, `--full` and grid), keeping canonical cell order.
    /// Plain merges (`dedup == false`) reject a trial both states recorded;
    /// duplicate-tolerant ones (the work-server's at-least-once delivery)
    /// discard bit-identical re-deliveries and reject conflicting ones.
    /// Returns the tally in *trial* units. Untrusted input never panics
    /// here: every mismatch is an `Err`.
    pub fn absorb(&mut self, other: ShardState, dedup: bool) -> Result<MergeStats, String> {
        if other.experiment != self.experiment {
            return Err(format!(
                "cannot merge artifacts from different experiments ({:?} vs {:?})",
                self.experiment, other.experiment
            ));
        }
        if other.full != self.full {
            return Err("cannot merge --full and quick-grid artifacts".to_string());
        }
        if other.grid != self.grid {
            return Err(format!(
                "artifact {}/{} describes a different sweep grid ({})",
                other.shard.0,
                other.shard.1,
                other.grid.mismatch(&self.grid)
            ));
        }
        let mut slots = MergeStats::default();
        let grid = &self.grid;
        for cell in other.cells {
            let (alg, n) = (cell.algorithm, cell.n);
            let in_cell = |e: String| format!("cell ({alg}, n={n}): {e}");
            let filled: usize = cell.acc.raw_samples().iter().map(|s| s.filled()).sum();
            let at = grid.index(alg, n);
            match self
                .cells
                .binary_search_by_key(&at, |c| grid.index(c.algorithm, c.n))
            {
                Err(i) => {
                    self.cells.insert(i, cell);
                    slots.fresh += filled;
                }
                Ok(i) if dedup => slots.absorb(
                    self.cells[i]
                        .acc
                        .try_merge_dedup(cell.acc)
                        .map_err(in_cell)?,
                ),
                Ok(i) => {
                    self.cells[i].acc.try_merge(cell.acc).map_err(in_cell)?;
                    slots.fresh += filled;
                }
            }
        }
        let metrics = self.grid.metrics.len().max(1);
        Ok(MergeStats {
            fresh: slots.fresh / metrics,
            duplicates: slots.duplicates / metrics,
        })
    }

    /// This build's entry for the state's experiment, after checking that
    /// the state's grid is the one this build sweeps for it — the check a
    /// loaded state passes before it is run further or reported.
    pub fn check_build(&self) -> Result<ShardableEntry, String> {
        let entry = grid_experiment(&self.experiment)?;
        let grid = (entry.grid)(&Options::for_grid(self.full, self.grid.trials));
        if grid != self.grid {
            return Err(format!(
                "artifact grid does not match {:?}'s grid in this build ({}) — \
                 artifact from a different build?",
                self.experiment,
                self.grid.mismatch(&grid)
            ));
        }
        Ok(entry)
    }

    /// Renders the artifact (see the module docs for the shape).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", escape(SHARD_SCHEMA)));
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            escape(&self.experiment)
        ));
        out.push_str(&format!("  \"full\": {},\n", self.full));
        out.push_str(&format!("  \"trials\": {},\n", self.grid.trials));
        out.push_str(&format!(
            "  \"cost\": \"{}\",\n",
            escape(self.grid.cost.key())
        ));
        out.push_str(&format!(
            "  \"shard\": [{}, {}],\n",
            self.shard.0, self.shard.1
        ));
        let metrics: Vec<String> = self
            .grid
            .metrics
            .iter()
            .map(|m| format!("\"{}\"", escape(m.key())))
            .collect();
        out.push_str(&format!("  \"metrics\": [{}],\n", metrics.join(", ")));
        let algorithms: Vec<String> = self
            .grid
            .algorithms
            .iter()
            .map(|a| format!("\"{}\"", escape(&a.key())))
            .collect();
        out.push_str(&format!("  \"algorithms\": [{}],\n", algorithms.join(", ")));
        let ns: Vec<String> = self.grid.ns.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!("  \"ns\": [{}],\n", ns.join(", ")));
        out.push_str("  \"cells\": [\n");
        for (ci, cell) in self.cells.iter().enumerate() {
            let samples: Vec<String> = cell
                .acc
                .raw_samples()
                .iter()
                .map(|buf| {
                    let vals: Vec<String> = buf.raw().iter().map(|&v| num(v)).collect();
                    format!("[{}]", vals.join(", "))
                })
                .collect();
            out.push_str(&format!(
                "    {{\"algorithm\": \"{}\", \"n\": {}, \"samples\": [{}]}}{}\n",
                escape(&cell.algorithm.key()),
                cell.n,
                samples.join(", "),
                if ci + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses and validates one artifact.
    pub fn parse(text: &str) -> Result<ShardState, String> {
        let doc = Json::parse(text)?;
        let schema = doc.field("schema")?.as_str()?;
        if schema != SHARD_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (this build reads {SHARD_SCHEMA:?})"
            ));
        }
        let experiment = doc.field("experiment")?.as_str()?.to_string();
        let full = doc.field("full")?.as_bool()?;
        let trials = doc.field("trials")?.as_u32()?;
        if trials == 0 {
            return Err("trials must be at least 1".to_string());
        }
        // Tolerant: artifacts written before cost metadata existed carry no
        // "cost" key and deserialize to the uniform estimate.
        let cost = match doc.field("cost") {
            Err(_) => CostSpec::Uniform,
            Ok(field) => {
                let key = field.as_str()?;
                CostSpec::from_key(key).ok_or_else(|| format!("unknown cost spec {key:?}"))?
            }
        };
        let shard_field = doc.field("shard")?.as_array()?;
        if shard_field.len() != 2 {
            return Err("shard must be [index, of]".to_string());
        }
        let shard = (shard_field[0].as_u32()?, shard_field[1].as_u32()?);
        if shard.1 == 0 || shard.0 >= shard.1 {
            return Err(format!(
                "bad shard coordinates {}/{} (need index < of, of >= 1)",
                shard.0, shard.1
            ));
        }
        let metrics = doc
            .field("metrics")?
            .as_array()?
            .iter()
            .map(|m| {
                let key = m.as_str()?;
                Metric::from_key(key).ok_or_else(|| format!("unknown metric {key:?}"))
            })
            .collect::<Result<Vec<Metric>, String>>()?;
        let algorithms = doc
            .field("algorithms")?
            .as_array()?
            .iter()
            .map(|a| {
                let key = a.as_str()?;
                AlgorithmKind::from_key(key).ok_or_else(|| format!("unknown algorithm {key:?}"))
            })
            .collect::<Result<Vec<AlgorithmKind>, String>>()?;
        let ns = doc
            .field("ns")?
            .as_array()?
            .iter()
            .map(Json::as_u32)
            .collect::<Result<Vec<u32>, String>>()?;
        let grid = GridMeta {
            algorithms,
            ns,
            trials,
            metrics,
            cost,
        };
        if let Some(alg) = repeated(&grid.algorithms) {
            return Err(format!("algorithms list {alg} twice"));
        }
        if let Some(n) = repeated(&grid.ns) {
            return Err(format!("ns lists {n} twice"));
        }
        let mut cells = Vec::new();
        for cell in doc.field("cells")?.as_array()? {
            let key = cell.field("algorithm")?.as_str()?;
            let algorithm =
                AlgorithmKind::from_key(key).ok_or_else(|| format!("unknown algorithm {key:?}"))?;
            let n = cell.field("n")?.as_u32()?;
            let index = grid
                .index(algorithm, n)
                .ok_or_else(|| format!("cell ({algorithm}, n={n}) is outside the grid"))?;
            let samples = cell
                .field("samples")?
                .as_array()?
                .iter()
                .map(|buf| {
                    buf.as_array()?
                        .iter()
                        .map(Json::as_f64)
                        .collect::<Result<Vec<f64>, String>>()
                })
                .collect::<Result<Vec<Vec<f64>>, String>>()?;
            if samples.len() != grid.metrics.len() {
                return Err(format!(
                    "cell ({algorithm}, n={n}) has {} sample buffers for {} metrics",
                    samples.len(),
                    grid.metrics.len()
                ));
            }
            if samples.iter().any(|s| s.len() != trials as usize) {
                return Err(format!(
                    "cell ({algorithm}, n={n}) buffers disagree with trials = {trials}"
                ));
            }
            // The engine records a trial's metrics together under the cell
            // lock, so a trial held by only some of them is corruption; it
            // could be neither re-run nor reported.
            let torn = (0..trials as usize).find(|&t| {
                let holes = samples.iter().filter(|s| s[t].is_nan()).count();
                holes > 0 && holes < samples.len()
            });
            if let Some(t) = torn {
                return Err(format!(
                    "cell ({algorithm}, n={n}) trial {t} is recorded for only some \
                     metrics — corrupt artifact"
                ));
            }
            let acc = MetricStats::from_parts(
                grid.metrics.clone(),
                samples.into_iter().map(StreamingSample::from_raw).collect(),
            );
            cells.push((index, StatsCell { algorithm, n, acc }));
        }
        cells.sort_by_key(|&(index, _)| index);
        if let Some(pair) = cells.windows(2).find(|w| w[0].0 == w[1].0) {
            let cell = &pair[0].1;
            return Err(format!(
                "cell ({}, n={}) appears twice",
                cell.algorithm, cell.n
            ));
        }
        let cells = cells.into_iter().map(|(_, cell)| cell).collect();
        Ok(ShardState {
            experiment,
            full,
            shard,
            grid,
            cells,
        })
    }
}

/// The first entry of `list` that also appears earlier in it.
fn repeated<T: PartialEq + Copy>(list: &[T]) -> Option<T> {
    list.iter()
        .enumerate()
        .find(|&(i, x)| list[..i].contains(x))
        .map(|(_, &x)| x)
}

/// Writes an artifact to `<dir>/<file_name()>` atomically (staged as
/// `*.tmp`, fsynced, renamed — a killed process can never leave a truncated
/// artifact under the real name); returns the path. I/O failures come back
/// as `Err`, never a panic: a full disk or bad permissions must surface
/// through the CLI's `error:` path.
pub fn write_state(dir: &Path, state: &ShardState) -> Result<PathBuf, String> {
    crate::fsutil::ensure_dir(dir)?;
    let path = dir.join(state.file_name());
    crate::fsutil::write_atomic(&path, state.to_json().as_bytes())?;
    Ok(path)
}

/// Loads every `*.shardstate.json` artifact in `dir`, in file-name order
/// (merging is order-insensitive; the order only stabilizes error messages).
/// Staged `*.tmp` files from torn writes are ignored; an unreadable
/// directory entry is an error (silently skipping one would surface later
/// as a misleading "merged state is incomplete").
pub fn load_dir(dir: &Path) -> Result<Vec<ShardState>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read an entry of {}: {e}", dir.display()))?;
        let path = entry.path();
        if path
            .file_name()
            .and_then(|f| f.to_str())
            .is_some_and(|f| f.ends_with(SHARD_SUFFIX))
        {
            paths.push(path);
        }
    }
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *{SHARD_SUFFIX} artifacts in {}", dir.display()));
    }
    paths
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            ShardState::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Merges shard states into one, validating compatibility as it goes.
///
/// Artifacts may arrive in any order (the result is order-independent) but
/// must all describe the same sweep — see [`ShardState::absorb`] — and the
/// same sharding: one shard denominator, each shard index once.
/// Overlapping trial recordings are rejected with a clear error — never a
/// panic — since artifacts are untrusted on-disk input. The merged state is
/// *not* required to be complete (check [`ShardState::is_complete`]); its
/// shard coordinates become `(0, 1)`.
pub fn merge_states(states: Vec<ShardState>) -> Result<ShardState, String> {
    let mut iter = states.into_iter();
    let mut merged = iter.next().ok_or("no shard states to merge")?;
    let mut seen_shards = vec![merged.shard];
    for state in iter {
        if state.shard.1 != merged.shard.1 {
            return Err(format!(
                "cannot merge artifacts from different shardings ({} vs {} shards)",
                merged.shard.1, state.shard.1
            ));
        }
        if seen_shards.contains(&state.shard) {
            return Err(format!(
                "duplicate shard artifact {}/{}",
                state.shard.0, state.shard.1
            ));
        }
        seen_shards.push(state.shard);
        merged.absorb(state, false)?;
    }
    merged.shard = (0, 1);
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::sharding::find_shardable;
    use crate::figures::shared::SweepHooks;
    use contention_core::algorithm::AlgorithmKind::*;

    fn grid() -> GridMeta {
        GridMeta {
            algorithms: vec![Beb, Sawtooth],
            ns: vec![10, 20],
            trials: 3,
            metrics: vec![Metric::CwSlots, Metric::Collisions],
            cost: CostSpec::NLogN,
        }
    }

    /// A state holding `cells` of the [`grid`], each cell's buffers filled
    /// with distinct values derived from its coordinates.
    fn state(shard: (u32, u32), cells: &[(AlgorithmKind, u32)]) -> ShardState {
        let g = grid();
        let cells: Vec<StatsCell> = cells
            .iter()
            .map(|&(algorithm, n)| StatsCell {
                algorithm,
                n,
                acc: MetricStats::from_parts(
                    g.metrics.clone(),
                    (0..g.metrics.len())
                        .map(|m| {
                            StreamingSample::from_raw(
                                (0..g.trials)
                                    .map(|t| (n as f64) * 100.0 + (m as f64) * 10.0 + t as f64)
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            })
            .collect();
        ShardState::from_cells("test-exp", false, shard, &g, &cells)
    }

    /// Applies `edit` to each of `cell`'s raw metric buffers.
    fn edit_buffers(cell: &mut StatsCell, edit: impl Fn(&mut Vec<f64>)) {
        let samples = cell
            .acc
            .raw_samples()
            .iter()
            .map(|s| {
                let mut raw = s.raw().to_vec();
                edit(&mut raw);
                StreamingSample::from_raw(raw)
            })
            .collect();
        cell.acc = MetricStats::from_parts(cell.acc.metrics().to_vec(), samples);
    }

    #[test]
    fn artifact_round_trips_bit_for_bit() {
        let mut s = state((1, 3), &[(Beb, 10), (Sawtooth, 20)]);
        // Punch a hole: trial 1 unrecorded → null in every metric buffer.
        edit_buffers(&mut s.cells[0], |raw| raw[1] = f64::NAN);
        let text = s.to_json();
        assert!(text.contains("null"), "{text}");
        let back = ShardState::parse(&text).unwrap();
        assert_eq!(back.experiment, s.experiment);
        assert_eq!(back.shard, s.shard);
        assert_eq!(back.grid, s.grid);
        for (a, b) in back.cells.iter().zip(&s.cells) {
            assert_eq!((a.algorithm, a.n), (b.algorithm, b.n));
            for (x, y) in a.acc.raw_samples().iter().zip(b.acc.raw_samples()) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x.raw()), bits(y.raw()));
            }
        }
        // Round-tripping the rendered text is a fixed point.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn merge_reassembles_the_grid_in_canonical_order() {
        // Shards arrive out of order and cover disjoint cell sets.
        let merged = merge_states(vec![
            state((2, 3), &[(Sawtooth, 20)]),
            state((0, 3), &[(Beb, 10), (Beb, 20)]),
            state((1, 3), &[(Sawtooth, 10)]),
        ])
        .unwrap();
        assert_eq!(merged.shard, (0, 1));
        assert!(merged.is_complete());
        let coords: Vec<(AlgorithmKind, u32)> =
            merged.cells.iter().map(|c| (c.algorithm, c.n)).collect();
        assert_eq!(
            coords,
            vec![(Beb, 10), (Beb, 20), (Sawtooth, 10), (Sawtooth, 20)]
        );
    }

    #[test]
    fn merge_rejects_mismatches_cleanly() {
        // Duplicate shard index.
        let err = merge_states(vec![
            state((0, 2), &[(Beb, 10)]),
            state((0, 2), &[(Beb, 20)]),
        ])
        .unwrap_err();
        assert!(err.contains("duplicate shard"), "{err}");
        // Overlapping cell trials (same cell fully recorded twice).
        let err = merge_states(vec![
            state((0, 2), &[(Beb, 10)]),
            state((1, 2), &[(Beb, 10)]),
        ])
        .unwrap_err();
        assert!(err.contains("more than one"), "{err}");
        // Different experiment.
        let mut other = state((1, 2), &[(Beb, 20)]);
        other.experiment = "something-else".to_string();
        let err = merge_states(vec![state((0, 2), &[(Beb, 10)]), other]).unwrap_err();
        assert!(err.contains("different experiments"), "{err}");
        // Different grid (trial count), named in the error.
        let mut other = state((1, 2), &[(Beb, 20)]);
        other.grid.trials = 4;
        let err = merge_states(vec![state((0, 2), &[(Beb, 10)]), other]).unwrap_err();
        assert!(err.contains("different sweep grid"), "{err}");
        assert!(err.contains("trials 4 vs trials 3"), "{err}");
        // Different sharding denominator.
        let err = merge_states(vec![
            state((0, 2), &[(Beb, 10)]),
            state((1, 3), &[(Beb, 20)]),
        ])
        .unwrap_err();
        assert!(err.contains("different shardings"), "{err}");
        // Mixed --full.
        let mut other = state((1, 2), &[(Beb, 20)]);
        other.full = true;
        let err = merge_states(vec![state((0, 2), &[(Beb, 10)]), other]).unwrap_err();
        assert!(err.contains("--full"), "{err}");
    }

    #[test]
    fn merge_is_associative_on_states() {
        let a = state((0, 3), &[(Beb, 10), (Beb, 20)]);
        let b = state((1, 3), &[(Sawtooth, 10)]);
        let c = state((2, 3), &[(Sawtooth, 20)]);
        let left = merge_states(vec![
            merge_states(vec![a.clone(), b.clone()]).unwrap(),
            c.clone(),
        ]);
        let right = merge_states(vec![
            a.clone(),
            merge_states(vec![b.clone(), c.clone()]).unwrap(),
        ]);
        // Note: merging a merged (0,1) state with a 3-shard state trips the
        // denominator check, so re-merge at matching denominators instead.
        assert!(left.is_err() && right.is_err());
        let abc = merge_states(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        let cba = merge_states(vec![c, b, a]).unwrap();
        assert_eq!(abc.to_json(), cba.to_json());
    }

    #[test]
    fn incomplete_states_name_what_is_missing() {
        let s = state((0, 2), &[(Beb, 10)]);
        assert!(!s.is_complete());
        let missing = s.missing();
        assert_eq!(missing.len(), 3);
        assert!(missing[0].contains("(BEB, n=20) missing"), "{missing:?}");
        let mut partial = state((0, 2), &[(Beb, 10)]);
        edit_buffers(&mut partial.cells[0], |raw| raw[2] = f64::NAN);
        assert!(
            partial
                .missing()
                .iter()
                .any(|m| m.contains("2 of 3 trials")),
            "{:?}",
            partial.missing()
        );
    }

    #[test]
    fn missing_work_lists_holes_and_recorded_counts_the_rest() {
        // Cells B10 complete, B20 missing trial 1; S10 and S20 absent.
        let mut s = state((0, 1), &[(Beb, 10), (Beb, 20)]);
        edit_buffers(&mut s.cells[1], |raw| raw[1] = f64::NAN);
        assert_eq!(
            s.missing_work(),
            vec![(1, vec![1]), (2, vec![0, 1, 2]), (3, vec![0, 1, 2])]
        );
        assert_eq!(s.recorded(), 5);
        // Recorded work weighs each trial by its cell's cost.
        let per_trial = grid().cell_trial_costs();
        assert_eq!(s.work(), 3.0 * per_trial[0] + 2.0 * per_trial[1]);
        // A complete state has nothing left to run.
        let full = state(
            (0, 1),
            &[(Beb, 10), (Beb, 20), (Sawtooth, 10), (Sawtooth, 20)],
        );
        assert!(full.missing_work().is_empty());
        assert_eq!(full.recorded(), 12);
    }

    #[test]
    fn parse_rejects_corrupt_artifacts() {
        let good = state((0, 1), &[(Beb, 10)]).to_json();
        for (needle, replacement, expect) in [
            ("shard_state/v1", "shard_state/v0", "unsupported schema"),
            ("\"cw_slots\"", "\"warp_factor\"", "unknown metric"),
            ("\"n-log-n\"", "\"o-of-wow\"", "unknown cost spec"),
            ("\"beb\", \"stb\"", "\"beb\", \"zzz\"", "unknown algorithm"),
            (
                "\"shard\": [0, 1]",
                "\"shard\": [1, 1]",
                "bad shard coordinates",
            ),
            ("\"shard\": [0, 1]", "\"shard\": [0]", "shard must be"),
            // Zero trials would leave nothing to aggregate.
            (
                "\"trials\": 3",
                "\"trials\": 0",
                "trials must be at least 1",
            ),
            // Canonical cell indices need the grid axes to be sets.
            (
                "\"ns\": [10, 20]",
                "\"ns\": [10, 20, 10]",
                "ns lists 10 twice",
            ),
            (
                "\"beb\", \"stb\"",
                "\"beb\", \"stb\", \"beb\"",
                "algorithms list BEB twice",
            ),
            // Trial 1 recorded for the first metric but not the second.
            ("1011", "null", "trial 1 is recorded for only some metrics"),
            // A cell outside the declared grid.
            ("\"n\": 10", "\"n\": 999", "outside the grid"),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement {needle:?} did not apply");
            let err = ShardState::parse(&bad).unwrap_err();
            assert!(err.contains(expect), "{needle:?}: {err}");
        }
        // The same cell twice.
        let line = good.lines().find(|l| l.contains("\"n\": 10")).unwrap();
        let twice = good.replace(line, &format!("{},\n{line}", line.trim_end_matches(',')));
        let err = ShardState::parse(&twice).unwrap_err();
        assert!(err.contains("appears twice"), "{err}");
        // Truncated document.
        assert!(ShardState::parse(&good[..good.len() / 2]).is_err());
    }

    #[test]
    fn artifacts_without_cost_metadata_read_back_as_uniform() {
        // A pre-cost artifact: strip the "cost" line entirely.
        let text = state((0, 1), &[(Beb, 10)]).to_json();
        let legacy: String = text
            .lines()
            .filter(|l| !l.contains("\"cost\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(legacy, text);
        let parsed = ShardState::parse(&legacy).unwrap();
        assert_eq!(parsed.grid.cost, CostSpec::Uniform);
    }

    #[test]
    fn grid_cost_tables_follow_grid_order_and_trials() {
        let g = grid();
        let per_trial = g.cell_trial_costs();
        let per_cell = g.cell_costs();
        assert_eq!(per_trial.len(), g.cell_count());
        // Grid order is algorithms outer, ns inner: [B10, B20, S10, S20].
        assert_eq!(per_trial[0], CostSpec::NLogN.cost(10));
        assert_eq!(per_trial[1], CostSpec::NLogN.cost(20));
        assert_eq!(per_trial[0], per_trial[2], "cost is algorithm-blind");
        for (cell, trial) in per_cell.iter().zip(&per_trial) {
            assert_eq!(*cell, trial * f64::from(g.trials));
        }
        assert_eq!(g.index(Sawtooth, 10), Some(2));
        assert_eq!(g.index(Sawtooth, 30), None);
    }

    #[test]
    fn cells_round_trip_through_the_engine_shape() {
        let s = state(
            (0, 1),
            &[(Beb, 10), (Beb, 20), (Sawtooth, 10), (Sawtooth, 20)],
        );
        let cells = s.clone().into_cells();
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.acc.is_complete()));
        let back = ShardState::from_cells("test-exp", false, (0, 1), &grid(), &cells);
        assert_eq!(back, s);
    }

    /// The work-server's fold: a replayed delivery is tallied as duplicates
    /// and leaves the state unchanged; a conflicting one and a foreign
    /// experiment's are rejected.
    #[test]
    fn dedup_absorb_discards_replays_and_rejects_conflicts_and_foreign_states() {
        let entry = find_shardable("fig5").unwrap();
        let opts = Options::for_grid(false, 2);
        let grid = (entry.grid)(&opts);
        let mut master = ShardState::from_cells("fig5", false, (0, 1), &grid, &[]);

        // Run trials {0} of every cell, twice over — the straggler +
        // re-issue shape. First delivery is all fresh, the identical second
        // one all duplicates.
        let plan: Vec<(usize, Vec<u32>)> =
            (0..grid.cell_count()).map(|c| (c, vec![0u32])).collect();
        let hooks = SweepHooks {
            missing: Some(&plan),
            ..SweepHooks::default()
        };
        let cells = (entry.cells)(&opts, &hooks);
        let posted = ShardState::from_cells("fig5", false, (0, 1), &grid, &cells);
        let replay = ShardState::parse(&posted.to_json()).unwrap();
        let first = master.absorb(posted, true).unwrap();
        assert_eq!((first.fresh, first.duplicates), (grid.cell_count(), 0));
        let before = master.to_json();
        let second = master.absorb(replay, true).unwrap();
        assert_eq!((second.fresh, second.duplicates), (0, grid.cell_count()));
        assert_eq!(
            master.to_json(),
            before,
            "a replay must not change the state"
        );
        assert_eq!(master.recorded(), grid.cell_count());

        // A conflicting duplicate (same slot, different bits) is rejected.
        let mut tampered = master.clone();
        tampered.cells.truncate(1);
        edit_buffers(&mut tampered.cells[0], |raw| raw[0] += 1.0);
        let err = master.absorb(tampered, true).unwrap_err();
        assert!(err.contains("conflicting"), "{err}");

        // A foreign experiment's state never folds.
        let foreign_grid = (find_shardable("fig3").unwrap().grid)(&opts);
        let foreign = ShardState::from_cells("fig3", false, (0, 1), &foreign_grid, &[]);
        let err = master.absorb(foreign, true).unwrap_err();
        assert!(err.contains("fig3"), "{err}");
    }
}
