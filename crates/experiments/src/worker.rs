//! `repro work` — the pull-based sweep worker.
//!
//! Connects to a `repro serve` coordinator, claims per-trial leases, runs
//! exactly the leased trials through the same engine path every other mode
//! uses (`ShardableEntry::cells` with a sparse `missing` plan — per-trial
//! RNG derivation makes the results bit-identical to any other execution),
//! and POSTs the resulting `shard_state/v1` artifact back. Loops until the
//! coordinator answers `done`.
//!
//! The worker holds no durable state: killing one mid-lease loses nothing
//! but time (the coordinator re-issues the lease after `--lease-secs`),
//! and a worker that double-runs trials is harmless (the coordinator's
//! dedup fold discards bit-identical replays).

use crate::figures::sharding::grid_experiment;
use crate::figures::shared::SweepHooks;
use crate::jsonin::Json;
use crate::options::Options;
use crate::server::http_request;
use crate::shard::ShardState;
use std::time::Duration;

/// How many consecutive failed exchanges before a worker that has *never*
/// reached the coordinator gives up.
const CONNECT_RETRIES: u32 = 25;
/// Pause between connection retries.
const RETRY_PAUSE: Duration = Duration::from_millis(200);

/// Fault-injection hook for the lease-failure tests: if set, the worker
/// sleeps this many milliseconds after claiming each lease and before
/// running it — a window in which CI kills it mid-lease.
const HOLD_ENV: &str = "REPRO_WORK_HOLD_MS";

/// One claimed lease, decoded off the wire.
struct Lease {
    id: u64,
    experiment: String,
    full: bool,
    trials: u32,
    /// Coalesced sparse plan: one `(cell, sorted trials)` entry per cell —
    /// the engine's `missing` seam requires each cell to appear once.
    plan: Vec<(usize, Vec<u32>)>,
}

/// A decoded `/lease` response: work, a pause, or the end of the run.
enum LeaseReply {
    Lease(Lease),
    Wait(Duration),
    Done,
}

/// Decodes a `/lease` response body.
fn decode_lease(body: &str) -> Result<LeaseReply, String> {
    let json = Json::parse(body)?;
    match json.field("status")?.as_str()? {
        "done" => Ok(LeaseReply::Done),
        "wait" => {
            let ms = json
                .field("retry_ms")
                .and_then(Json::as_f64)
                .unwrap_or(200.0);
            Ok(LeaseReply::Wait(Duration::from_millis(ms.max(0.0) as u64)))
        }
        "lease" => {
            let id = json.field("id")?.as_f64()? as u64;
            let experiment = json.field("experiment")?.as_str()?.to_string();
            let full = json.field("full")?.as_bool()?;
            let trials = json.field("trials")?.as_u32()?;
            let mut plan: Vec<(usize, Vec<u32>)> = Vec::new();
            for range in json.field("work")?.as_array()? {
                let triple = range.as_array()?;
                if triple.len() != 3 {
                    return Err("work ranges must be [cell, lo, hi]".to_string());
                }
                let cell = triple[0].as_u32()? as usize;
                let (lo, hi) = (triple[1].as_u32()?, triple[2].as_u32()?);
                if lo >= hi || hi > trials {
                    return Err(format!("bad trial range [{lo},{hi}) of {trials}"));
                }
                match plan.iter_mut().find(|(c, _)| *c == cell) {
                    Some((_, ts)) => ts.extend(lo..hi),
                    None => plan.push((cell, (lo..hi).collect())),
                }
            }
            for (_, ts) in &mut plan {
                ts.sort_unstable();
                ts.dedup();
            }
            plan.sort_by_key(|&(c, _)| c);
            Ok(LeaseReply::Lease(Lease {
                id,
                experiment,
                full,
                trials,
                plan,
            }))
        }
        other => Err(format!("unknown lease status {other:?}")),
    }
}

/// Runs one lease's trials and returns the artifact to POST back.
fn run_lease(lease: &Lease, opts: &Options) -> Result<String, String> {
    let entry = grid_experiment(&lease.experiment)?;
    let run_opts = Options {
        threads: opts.threads,
        ..Options::for_grid(lease.full, lease.trials)
    };
    let grid = (entry.grid)(&run_opts);
    for &(cell, _) in &lease.plan {
        if cell >= grid.cell_count() {
            return Err(format!(
                "leased cell {cell} is outside this build's {}-cell grid — \
                 coordinator and worker run different code",
                grid.cell_count()
            ));
        }
    }
    let hooks = SweepHooks {
        missing: Some(&lease.plan),
        ..SweepHooks::default()
    };
    let cells = (entry.cells)(&run_opts, &hooks);
    Ok(ShardState::from_cells(&lease.experiment, lease.full, (0, 1), &grid, &cells).to_json())
}

/// The worker loop: claim, run, report, repeat until `done`.
pub fn run_worker(opts: &Options) -> Result<(), String> {
    let addr = opts.connect.clone().expect("validated at parse time");
    let hold = std::env::var(HOLD_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis);
    let mut failures = 0u32;
    let mut ever_connected = false;
    let mut leases_done = 0usize;
    loop {
        let response = http_request(&addr, "GET", "/lease", None);
        let (status, body) = match response {
            Ok(r) => r,
            Err(e) => {
                failures += 1;
                if !ever_connected && failures >= CONNECT_RETRIES {
                    return Err(format!("cannot reach coordinator at {addr}: {e}"));
                }
                if ever_connected {
                    // The coordinator lingers only briefly after completion;
                    // a vanished coordinator after successful exchanges
                    // almost certainly means the run finished without us.
                    println!(
                        "[work] coordinator at {addr} gone after {leases_done} leases — \
                         assuming the sweep completed"
                    );
                    return Ok(());
                }
                std::thread::sleep(RETRY_PAUSE);
                continue;
            }
        };
        ever_connected = true;
        failures = 0;
        if status != 200 {
            return Err(format!(
                "coordinator rejected lease claim ({status}): {body}"
            ));
        }
        let lease = match decode_lease(&body) {
            Ok(LeaseReply::Lease(lease)) => lease,
            Ok(LeaseReply::Wait(pause)) => {
                std::thread::sleep(pause);
                continue;
            }
            Ok(LeaseReply::Done) => {
                println!("[work] sweep complete after {leases_done} leases");
                return Ok(());
            }
            Err(e) => {
                return Err(format!("malformed lease response ({e}): {body}"));
            }
        };
        if let Some(pause) = hold {
            // Fault injection: linger before running so a test can kill us
            // mid-lease and watch the coordinator re-issue the work.
            std::thread::sleep(pause);
        }
        let trials: usize = lease.plan.iter().map(|(_, t)| t.len()).sum();
        println!(
            "[work] lease {}: {} trials across {} cells of {}",
            lease.id,
            trials,
            lease.plan.len(),
            lease.experiment
        );
        let artifact = run_lease(&lease, opts)?;
        let path = format!("/result/{}", lease.id);
        match http_request(&addr, "POST", &path, Some(&artifact)) {
            Ok((200, reply)) => {
                leases_done += 1;
                println!("[work] lease {} accepted: {reply}", lease.id);
            }
            Ok((409, reply)) => {
                // The fold rejected our results: wrong build, conflicting
                // bits. Running more leases would produce more rejections.
                return Err(format!("coordinator rejected lease {}: {reply}", lease.id));
            }
            Ok((status, reply)) => {
                return Err(format!(
                    "unexpected reply {status} to lease {}: {reply}",
                    lease.id
                ));
            }
            Err(e) => {
                // Delivery failed — the lease will expire and be re-issued;
                // our next claim round decides whether the server is gone.
                eprintln!("warning: could not deliver lease {}: {e}", lease.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_decoding_coalesces_ranges_into_one_sorted_plan_entry_per_cell() {
        let reply = decode_lease(
            "{\"status\":\"lease\",\"id\":7,\"experiment\":\"fig5\",\"full\":false,\
             \"trials\":8,\"work\":[[2,0,3],[2,3,5],[0,6,8],[0,2,4]]}",
        )
        .unwrap();
        let LeaseReply::Lease(lease) = reply else {
            panic!("expected a lease");
        };
        assert_eq!(lease.id, 7);
        assert_eq!(lease.experiment, "fig5");
        assert_eq!(
            lease.plan,
            vec![(0, vec![2, 3, 6, 7]), (2, vec![0, 1, 2, 3, 4])],
            "ranges of one cell must fuse into a single sorted plan entry"
        );

        assert!(matches!(
            decode_lease("{\"status\":\"wait\",\"retry_ms\":50}"),
            Ok(LeaseReply::Wait(p)) if p == Duration::from_millis(50)
        ));
        assert!(matches!(
            decode_lease("{\"status\":\"done\"}"),
            Ok(LeaseReply::Done)
        ));
        assert!(decode_lease("not json").is_err());
        // Degenerate and out-of-bounds ranges are rejected, not run.
        assert!(decode_lease(
            "{\"status\":\"lease\",\"id\":1,\"experiment\":\"fig5\",\"full\":false,\
             \"trials\":4,\"work\":[[0,3,9]]}"
        )
        .is_err());
    }
}
