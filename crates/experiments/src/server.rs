//! `repro serve` — the pull-based sweep coordinator.
//!
//! A long-running process that cuts one experiment's sweep into cost-
//! weighted per-trial leases ([`TrialRange::partition`]), hands them to
//! `repro work` processes over a minimal HTTP/TCP protocol, folds the
//! results they POST back, and writes the same artifacts a single-process
//! run would — byte-identical, because trial results are position-addressed
//! functions of `(experiment, algorithm, n, trial)` alone and the fold
//! seam is associative.
//!
//! ## Wire protocol
//!
//! Three routes, all JSON over HTTP/1.1 with `Connection: close`:
//!
//! * `GET /lease` — claim work. Responses:
//!   `{"status":"lease","id":N,"experiment":...,"full":...,"trials":T,`
//!   `"work":[[cell,lo,hi],...]}` (run trials `[lo,hi)` of each grid cell),
//!   `{"status":"wait","retry_ms":200}` (everything is leased out; poll
//!   again), or `{"status":"done"}` (the sweep is complete; exit).
//! * `POST /result/<id>` — body is a `shard_state/v1` artifact (the same
//!   format `repro shard` writes; the artifact seam *is* the wire format).
//!   The server validates it against the run's grid, folds it with
//!   duplicate-trial tolerance, checkpoints, and answers
//!   `{"status":"ok","fresh":F,"duplicate":D,"remaining":R}`.
//! * `GET /metrics` — the live `sweep_metrics/v2` sidecar, re-served
//!   verbatim from `--out/metrics.json`.
//!
//! ## Failure semantics
//!
//! A lease not completed within `--lease-secs` is re-issued (under a fresh
//! id) to the next worker that asks; the original worker may still POST
//! later, and the duplicate-trial discard of
//! [`MetricStats::try_merge_dedup`] makes the double execution harmless —
//! honest re-execution reproduces the bits exactly, and anything *else*
//! (conflicting values, a foreign grid, torn per-metric trials, deep JSON)
//! is rejected with an error, never folded. Every accepted POST checkpoints
//! the fold state into `--out/checkpoints/`, so a killed coordinator
//! resumes with `repro serve` pointed at the same `--out`, re-leasing only
//! the missing trials.
//!
//! ## Concurrency
//!
//! Nothing polls. An acceptor thread blocks in `accept()` and hands each
//! connection to its own handler thread, at most `MAX_CONCURRENT` at a time
//! (a semaphore). The main thread sleeps on a condvar paired with the fold
//! mutex; the `POST` that completes the sweep — or an `accept()` failure —
//! wakes it to write the reports. After the linger window it sets a stop
//! flag and wakes the blocked acceptor with one loopback `connect`, then
//! joins it, so the listen port is free again when [`Server::run`] returns.

use crate::checkpoint::{self, CheckpointWriter};
use crate::cli::report_state;
use crate::figures::sharding::{grid_experiment, ShardableEntry};
use crate::options::Options;
use crate::shard::ShardState;
use contention_sim::engine::TrialRange;
use contention_sim::monitor::{SweepMonitor, SweepSnapshot};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default coordinator port (`--port` overrides; `0` = ephemeral).
pub const DEFAULT_PORT: u16 = 7481;
/// Default lease time-to-live before re-issue (`--lease-secs`).
pub const DEFAULT_LEASE_SECS: u64 = 60;
/// Default lease count the sweep is cut into (`--leases`).
pub const DEFAULT_LEASES: usize = 16;
/// Default post-completion linger window (`--linger-secs`).
pub const DEFAULT_LINGER_SECS: u64 = 2;
/// Poll interval the `wait` response suggests to workers.
pub const WAIT_RETRY_MS: u64 = 200;

/// Request bodies larger than this are rejected up front — a full-grid
/// artifact is megabytes; hundreds of megabytes is an attack, not a result.
const MAX_BODY_BYTES: usize = 64 << 20;
/// Cap on the request line plus headers together — the workers send a few
/// dozen bytes; anything past this is refused with 431 rather than grown
/// into one unbounded line buffer.
const MAX_HEAD_BYTES: u64 = 16 << 10;
/// Concurrent request-handler cap (the semaphore's permit count): enough
/// for a busy fleet, bounded so a connection flood cannot spawn unbounded
/// threads.
const MAX_CONCURRENT: usize = 32;
/// Completed-lease records are kept this long for diagnostics, then swept.
const DONE_TTL: Duration = Duration::from_secs(600);
/// ... and never more than this many, whatever their age.
const DONE_CAP: usize = 1024;
/// Per-connection socket read timeout: a worker that stops mid-request
/// must not pin a handler (and its semaphore permit) forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Job store: pending/active/done leases with TTL-based re-issue.
// ---------------------------------------------------------------------------

struct ActiveLease {
    id: u64,
    work: Vec<TrialRange>,
    issued: Instant,
}

/// The lease lifecycle: `pending` → (claim) → `active` → (result) → `done`,
/// with expiry sweeping `active` back to the front of `pending` under a
/// fresh id. All time-dependent methods take an explicit `now` so tests
/// drive the clock deterministically. Bounded on every axis: `pending` and
/// `active` never exceed the initial lease count, `done` is capped and
/// TTL-swept.
struct JobStore {
    pending: VecDeque<(u64, Vec<TrialRange>)>,
    active: Vec<ActiveLease>,
    done: VecDeque<(u64, Instant)>,
    next_id: u64,
    ttl: Duration,
    /// Leases that expired and were re-issued — stragglers, for the log.
    pub reissued: usize,
}

impl JobStore {
    fn new(leases: Vec<Vec<TrialRange>>, ttl: Duration) -> JobStore {
        let pending: VecDeque<_> = leases
            .into_iter()
            .enumerate()
            .map(|(i, work)| (i as u64, work))
            .collect();
        JobStore {
            next_id: pending.len() as u64,
            pending,
            active: Vec::new(),
            done: VecDeque::new(),
            ttl,
            reissued: 0,
        }
    }

    /// Expires overdue actives back to the queue head (stragglers' work is
    /// the oldest — it should go out again first) and sweeps `done`.
    fn sweep(&mut self, now: Instant) {
        let mut i = 0;
        while i < self.active.len() {
            if now.duration_since(self.active[i].issued) >= self.ttl {
                let lease = self.active.swap_remove(i);
                let id = self.next_id;
                self.next_id += 1;
                self.reissued += 1;
                self.pending.push_front((id, lease.work));
            } else {
                i += 1;
            }
        }
        while self.done.len() > DONE_CAP {
            self.done.pop_front();
        }
        while let Some(&(_, at)) = self.done.front() {
            if now.duration_since(at) >= DONE_TTL {
                self.done.pop_front();
            } else {
                break;
            }
        }
    }

    /// Claims the next pending lease, if any.
    fn claim(&mut self, now: Instant) -> Option<(u64, Vec<TrialRange>)> {
        self.sweep(now);
        let (id, work) = self.pending.pop_front()?;
        self.active.push(ActiveLease {
            id,
            work: work.clone(),
            issued: now,
        });
        Some((id, work))
    }

    /// Marks a lease's results delivered. `false` means the lease was no
    /// longer active — it expired and was re-issued, or the id is unknown;
    /// the results were folded either way (dedup makes that safe), this is
    /// bookkeeping only.
    fn complete(&mut self, id: u64, now: Instant) -> bool {
        self.sweep(now);
        match self.active.iter().position(|l| l.id == id) {
            Some(i) => {
                self.active.swap_remove(i);
                self.done.push_back((id, now));
                true
            }
            None => false,
        }
    }

    fn active_count(&self) -> usize {
        self.active.len()
    }
}

// ---------------------------------------------------------------------------
// Semaphore: the hand-rolled concurrency cap (no external deps).
// ---------------------------------------------------------------------------

struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut permits = self.permits.lock().expect("semaphore poisoned");
        while *permits == 0 {
            permits = self.freed.wait(permits).expect("semaphore poisoned");
        }
        *permits -= 1;
    }

    fn release(&self) {
        *self.permits.lock().expect("semaphore poisoned") += 1;
        self.freed.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Fold state: the coordinator's master accumulator.
// ---------------------------------------------------------------------------

struct Fold {
    /// The master state: everything the fleet (and any checkpoint resumed
    /// from) has delivered.
    state: ShardState,
    store: JobStore,
    accepted_posts: usize,
    duplicate_trials: usize,
    complete: bool,
    /// Set by the acceptor thread when `accept()` fails; [`Server::run`]
    /// returns it.
    accept_error: Option<String>,
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

struct Shared {
    fold: Mutex<Fold>,
    /// Signalled under the `fold` lock when `complete` or `accept_error`
    /// is set.
    wake: Condvar,
    /// Tells the acceptor thread to exit at its next accepted connection.
    stop: AtomicBool,
    writer: CheckpointWriter,
    metrics_path: PathBuf,
    handlers: Semaphore,
    started: Instant,
}

impl Shared {
    /// Records a failed `accept()` and wakes [`Server::run`] to return it.
    fn accept_failed(&self, e: &std::io::Error) {
        let mut fold = self.fold.lock().expect("fold poisoned");
        fold.accept_error = Some(format!("accept failed: {e}"));
        self.wake.notify_all();
    }
}

/// A bound-but-not-yet-running coordinator. [`Server::start`] binds the
/// socket and loads/cuts the work; [`Server::run`] serves until the sweep
/// completes (plus the linger window) and writes the final artifacts.
/// Split so tests can read [`Server::local_addr`] (port 0 = ephemeral)
/// before the accept loop takes the thread.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    entry: ShardableEntry,
    out_dir: PathBuf,
    json: bool,
    linger: Duration,
}

impl Server {
    /// Binds the coordinator: resolves the experiment, rebuilds its grid,
    /// resumes from the newest matching checkpoint under `--out` if one
    /// exists, cuts the remaining work into cost-weighted leases, and
    /// binds the listen socket. No trials run here — workers do that.
    pub fn start(opts: &Options) -> Result<Server, String> {
        let name = &opts.inputs[0];
        let entry = grid_experiment(name)?;
        let out_dir = opts.out_dir.clone().expect("validated at parse time");
        let grid = (entry.grid)(opts);
        let trials_total = grid.cell_count() * grid.trials as usize;

        // Resume: absorb the newest surviving checkpoint as the starting
        // master state, if it is this sweep's.
        let mut state = ShardState::from_cells(name, opts.full, (0, 1), &grid, &[]);
        if out_dir.join(checkpoint::CHECKPOINT_DIR).is_dir() {
            match checkpoint::load_latest(&out_dir) {
                Ok(loaded) => {
                    for warning in &loaded.warnings {
                        eprintln!("warning: {warning}");
                    }
                    match state.absorb(loaded.state, false) {
                        Ok(_) => println!(
                            "[serve] resuming from checkpoint seq {} ({} trials recorded)",
                            loaded.seq,
                            state.recorded()
                        ),
                        Err(e) => eprintln!(
                            "warning: checkpoint in {} is for a different sweep ({e}) — \
                             starting fresh",
                            out_dir.display()
                        ),
                    }
                }
                Err(e) => eprintln!("warning: cannot resume from {}: {e}", out_dir.display()),
            }
        }

        // Cut the *missing* work (everything, on a fresh start) into
        // cost-weighted per-trial leases.
        let plan = state.missing_work();
        let leases = TrialRange::partition(
            &plan,
            &grid.cell_trial_costs(),
            opts.leases.unwrap_or(DEFAULT_LEASES),
        );
        let remaining: usize = plan.iter().map(|(_, t)| t.len()).sum();
        let store = JobStore::new(
            leases,
            Duration::from_secs(opts.lease_secs.unwrap_or(DEFAULT_LEASE_SECS)),
        );

        let writer = CheckpointWriter::new(&out_dir, name, opts.full, grid.clone())?;
        let port = opts.port.unwrap_or(DEFAULT_PORT);
        let listener = TcpListener::bind(("0.0.0.0", port))
            .map_err(|e| format!("cannot bind port {port}: {e}"))?;
        println!(
            "[serve] {name} on {}: {} leases over {remaining} of {trials_total} trials",
            listener.local_addr().map_err(|e| e.to_string())?,
            store.pending.len(),
        );
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                fold: Mutex::new(Fold {
                    state,
                    store,
                    accepted_posts: 0,
                    duplicate_trials: 0,
                    complete: remaining == 0,
                    accept_error: None,
                }),
                wake: Condvar::new(),
                stop: AtomicBool::new(false),
                writer,
                metrics_path: out_dir.join(checkpoint::METRICS_FILE),
                handlers: Semaphore::new(MAX_CONCURRENT),
                started: Instant::now(),
            }),
            entry,
            out_dir,
            json: opts.json,
            linger: Duration::from_secs(opts.linger_secs.unwrap_or(DEFAULT_LINGER_SECS)),
        })
    }

    /// The bound address — the `HOST:PORT` workers `--connect` to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Serves until the sweep completes, then writes the experiment's
    /// reports into `--out` (byte-identical to a single-process run),
    /// answers `done` for the linger window so slow workers learn the run
    /// is over, and returns.
    pub fn run(self) -> Result<(), String> {
        let listener = self
            .listener
            .try_clone()
            .map_err(|e| format!("cannot share listener: {e}"))?;
        let shared = Arc::clone(&self.shared);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &shared));
        let served = self.serve_until_done();
        // Wakes the acceptor out of `accept()`: the listener binds 0.0.0.0,
        // so loopback reaches it. If the acceptor already exited, the
        // connection waits in the backlog until the listener closes.
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(("127.0.0.1", self.local_addr().port()));
        acceptor.join().expect("acceptor thread panicked");
        served
    }

    fn serve_until_done(&self) -> Result<(), String> {
        self.wait(None, |fold| fold.complete)?;
        self.finalize()?;
        self.wait(Some(self.linger), |_| false)
    }

    /// Sleeps on [`Shared::wake`] until `done` holds, or for at most
    /// `limit`; a failed `accept()` cuts the wait short with its error.
    fn wait(&self, limit: Option<Duration>, done: impl Fn(&Fold) -> bool) -> Result<(), String> {
        let fold = self.shared.fold.lock().expect("fold poisoned");
        let waiting = |fold: &mut Fold| fold.accept_error.is_none() && !done(fold);
        let wake = &self.shared.wake;
        let fold = match limit {
            None => wake.wait_while(fold, waiting).expect("fold poisoned"),
            Some(limit) => {
                wake.wait_timeout_while(fold, limit, waiting)
                    .expect("fold poisoned")
                    .0
            }
        };
        fold.accept_error.clone().map_or(Ok(()), Err)
    }

    /// Convenience for the CLI: `start` + `run` in one call.
    pub fn serve(opts: &Options) -> Result<(), String> {
        Server::start(opts)?.run()
    }

    /// The sweep is complete: write the figure's reports, exactly as
    /// `repro merge` would.
    fn finalize(&self) -> Result<(), String> {
        let fold = self.shared.fold.lock().expect("fold poisoned");
        println!(
            "[serve] {} complete: {} posts accepted, {} duplicate trials discarded, \
             {} leases re-issued",
            fold.state.experiment, fold.accepted_posts, fold.duplicate_trials, fold.store.reissued
        );
        let wrote = report_state(
            &fold.state,
            &self.entry,
            "finalize called on an incomplete fold",
            &self.out_dir,
            self.json,
        )?;
        println!("[serve] {wrote} written to {}", self.out_dir.display());
        Ok(())
    }
}

/// The acceptor thread: blocks in `accept()` and hands each connection to a
/// handler thread under the concurrency cap. Exits at the first connection
/// after [`Shared::stop`] is set, or on an `accept()` error.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                shared.handlers.acquire();
                std::thread::spawn(move || {
                    handle_connection(stream, &shared);
                    shared.handlers.release();
                });
            }
            Err(e) => return shared.accept_failed(&e),
        }
    }
}

// ---------------------------------------------------------------------------
// Request handling.
// ---------------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: String,
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let (status, body) = match read_request(&mut stream) {
        Ok(req) => route(&req, shared),
        Err(rejection) => rejection,
    };
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let _ = stream.write_all(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", crate::jsonout::escape(s))
}

/// Reads one request. A malformed one yields the `(status, body)` to answer
/// with: `431` for a request line plus headers over `MAX_HEAD_BYTES`, `413`
/// for a body over `MAX_BODY_BYTES` (both refused before any buffer for
/// them grows past the cap), `400` for anything else.
fn read_request(stream: &mut TcpStream) -> Result<Request, (u16, String)> {
    let bad = |message: String| (400, error_body(&message));
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEAD_BYTES);
    let line = read_head_line(&mut head, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(bad("malformed request line".to_string()));
    }
    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut head, "header")?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((key, value)) = header.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad content-length {value:?}")))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err((
            413,
            error_body(&format!(
                "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
            )),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| bad(format!("cannot read body: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8".to_string()))?;
    Ok(Request { method, path, body })
}

/// Reads one line of the request head from the `MAX_HEAD_BYTES`-capped
/// reader; a line cut off by the cap is a `431`.
fn read_head_line<R: BufRead>(head: &mut Take<R>, what: &str) -> Result<String, (u16, String)> {
    let mut line = String::new();
    head.read_line(&mut line)
        .map_err(|e| (400, error_body(&format!("cannot read {what}: {e}"))))?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err((
            431,
            error_body(&format!(
                "request line and headers exceed the {MAX_HEAD_BYTES}-byte cap"
            )),
        ));
    }
    Ok(line)
}

fn route(req: &Request, shared: &Shared) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/lease") => lease_response(shared),
        ("GET", "/metrics") => metrics_response(shared),
        ("POST", path) if path.starts_with("/result/") => {
            match path["/result/".len()..].parse::<u64>() {
                Ok(id) => result_response(shared, id, &req.body),
                Err(_) => (400, error_body("bad lease id in path")),
            }
        }
        _ => (
            404,
            error_body(&format!("no route {} {}", req.method, req.path)),
        ),
    }
}

fn error_body(message: &str) -> String {
    format!("{{\"status\":\"error\",\"error\":{}}}", json_str(message))
}

fn lease_response(shared: &Shared) -> (u16, String) {
    let mut fold = shared.fold.lock().expect("fold poisoned");
    if fold.complete {
        return (200, "{\"status\":\"done\"}".to_string());
    }
    match fold.store.claim(Instant::now()) {
        None => (
            200,
            format!("{{\"status\":\"wait\",\"retry_ms\":{WAIT_RETRY_MS}}}"),
        ),
        Some((id, work)) => {
            let ranges: Vec<String> = work
                .iter()
                .map(|r| format!("[{},{},{}]", r.cell, r.lo, r.hi))
                .collect();
            (
                200,
                format!(
                    "{{\"status\":\"lease\",\"id\":{id},\"experiment\":{},\"full\":{},\
                     \"trials\":{},\"work\":[{}]}}",
                    json_str(&fold.state.experiment),
                    fold.state.full,
                    fold.state.grid.trials,
                    ranges.join(",")
                ),
            )
        }
    }
}

fn metrics_response(shared: &Shared) -> (u16, String) {
    // Re-serve the sidecar bytes verbatim — one source of truth on disk.
    match std::fs::read_to_string(&shared.metrics_path) {
        Ok(text) => (200, text),
        Err(_) => (404, error_body("no metrics yet — no result accepted")),
    }
}

fn result_response(shared: &Shared, id: u64, body: &str) -> (u16, String) {
    // Parse and validate outside the fold lock — `ShardState::parse` is the
    // expensive part, and its grid/duplicate/shape checks (plus jsonin's
    // depth cap) are what stand between untrusted bytes and the master
    // state.
    let posted = match ShardState::parse(body) {
        Ok(state) => state,
        Err(e) => return (400, error_body(&format!("unparseable artifact: {e}"))),
    };
    let mut fold = shared.fold.lock().expect("fold poisoned");
    if fold.complete {
        // A straggler finishing after the sweep completed: its trials are
        // all duplicates by construction. Nothing to fold.
        return (200, "{\"status\":\"done\"}".to_string());
    }
    let stats = match fold.state.absorb(posted, true) {
        Ok(stats) => stats,
        Err(e) => return (409, error_body(&e)),
    };
    fold.store.complete(id, Instant::now());
    fold.accepted_posts += 1;
    fold.duplicate_trials += stats.duplicates;
    let recorded = fold.state.recorded();
    let total = fold.state.grid.cell_count() * fold.state.grid.trials as usize;
    let remaining = total - recorded;
    fold.complete = remaining == 0;
    if fold.complete {
        shared.wake.notify_all();
    }
    // Checkpoint every accepted result: the fold is the only copy of the
    // fleet's work, and the final (finished) snapshot doubles as the clean-
    // shutdown flush. Written *under* the fold lock — the writer stages
    // fixed temp-file names, so concurrent snapshots would race each
    // other's renames, and serializing here also keeps checkpoint seq
    // order identical to fold order.
    let snapshot = SweepSnapshot {
        cells: fold.state.cells.clone(),
        completed_trials: recorded,
        total_trials: total,
        elapsed: shared.started.elapsed(),
        workers: fold.store.active_count().max(1),
        finished: fold.complete,
    };
    shared.writer.snapshot(snapshot);
    drop(fold);
    (
        200,
        format!(
            "{{\"status\":\"ok\",\"fresh\":{},\"duplicate\":{},\"remaining\":{remaining}}}",
            stats.fresh, stats.duplicates
        ),
    )
}

// ---------------------------------------------------------------------------
// Minimal HTTP client — shared by `repro work` and the tests.
// ---------------------------------------------------------------------------

/// One HTTP/1.1 exchange with the coordinator: sends `method path` with the
/// optional body, returns `(status, body)`. `Connection: close` both ways —
/// every exchange is its own TCP connection, which keeps both ends trivial
/// (no keep-alive state machine). On loopback, on a 2-vCPU x86-64 VM, the
/// median `GET /lease` round trip measured 0.2–0.3 ms and `POST /result`
/// 2–3 ms, most of it the fsynced checkpoint, next to 10–14 ms of compute
/// per lease of `fig3 --full` cut 128 ways.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let body = body.unwrap_or("");
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::tests::hostile_fig6_artifacts;
    use crate::jsonin::Json;
    use std::process::ExitCode;

    fn lease(cell: usize, lo: u32, hi: u32) -> Vec<TrialRange> {
        vec![TrialRange { cell, lo, hi }]
    }

    #[test]
    fn job_store_walks_the_lease_lifecycle_with_expiry_and_reissue() {
        let t0 = Instant::now();
        let ttl = Duration::from_secs(10);
        let mut store = JobStore::new(vec![lease(0, 0, 2), lease(1, 0, 2)], ttl);

        // Claim both (B a little later); the store is drained.
        let (id_a, work_a) = store.claim(t0).unwrap();
        let (id_b, _) = store.claim(t0 + Duration::from_secs(5)).unwrap();
        assert_ne!(id_a, id_b);
        assert!(
            store.claim(t0 + Duration::from_secs(5)).is_none(),
            "nothing pending"
        );
        assert_eq!(store.active_count(), 2);

        // Only lease A has aged past the TTL: the next claim re-issues its
        // work under a fresh id while B stays active.
        let late = t0 + ttl + Duration::from_secs(1);
        let (id_a2, work_a2) = store.claim(late).unwrap();
        assert!(id_a2 > id_b, "re-issue must mint a fresh id");
        assert_eq!(store.reissued, 1, "only the straggler expired");
        assert_eq!(work_a2, work_a, "the straggler's own work is re-served");

        // The original straggler's id is no longer active: completing it
        // reports false (results still folded by the caller — just no
        // bookkeeping entry), while the live id completes normally.
        assert!(!store.complete(id_a, late));
        assert!(store.complete(id_a2, late));
        assert_eq!(store.done.len(), 1);

        // Done records are TTL-swept.
        store.sweep(late + DONE_TTL + Duration::from_secs(1));
        assert!(store.done.is_empty());
    }

    /// A bound coordinator for `experiment` (two trials, ephemeral port)
    /// over a fresh out-dir, which the caller removes.
    fn two_trial_server(experiment: &str, tag: &str) -> (Server, PathBuf) {
        let dir = std::env::temp_dir().join(format!("repro-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = Options {
            inputs: vec![experiment.to_string()],
            trials: Some(2),
            out_dir: Some(dir.clone()),
            port: Some(0),
            ..Options::default()
        };
        (Server::start(&opts).unwrap(), dir)
    }

    /// Sends `raw` over a loopback connection, half-closing it so a short
    /// request reads as end-of-stream, serves it with `handle_connection`,
    /// and returns the status line and the error message of the JSON body.
    fn exchange(shared: &Shared, raw: &[u8]) -> (String, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(raw).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (served, _) = listener.accept().unwrap();
        handle_connection(served, shared);
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("complete response");
        let json = Json::parse(body).expect("JSON body");
        assert_eq!(json.field("status").unwrap().as_str().unwrap(), "error");
        let error = json.field("error").unwrap().as_str().unwrap().to_string();
        (head.lines().next().unwrap().to_string(), error)
    }

    #[test]
    fn hostile_requests_get_clean_client_errors() {
        let (server, dir) = two_trial_server("fig5", "hostile");
        let over_cap = format!(
            "POST /result/0 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        // Allocating a buffer for this length would panic (capacity
        // overflow), so a clean 413 shows the cap is checked first.
        let huge = format!(
            "POST /result/0 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            usize::MAX
        );
        let cases: [(&[u8], &str, &str); 10] = [
            (b"", "400 Bad Request", "malformed request line"),
            (
                b"GARBAGE\r\n\r\n",
                "400 Bad Request",
                "malformed request line",
            ),
            (
                b"POST /result/0 HTTP/1.1\r\nContent-Length: twelve\r\n\r\n",
                "400 Bad Request",
                "bad content-length",
            ),
            (over_cap.as_bytes(), "413 Payload Too Large", "-byte cap"),
            (huge.as_bytes(), "413 Payload Too Large", "-byte cap"),
            (
                b"POST /result/0 HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"short\"",
                "400 Bad Request",
                "cannot read body",
            ),
            (
                b"POST /result/0 HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
                "400 Bad Request",
                "not UTF-8",
            ),
            (
                b"GET /nope HTTP/1.1\r\n\r\n",
                "404 Not Found",
                "no route GET /nope",
            ),
            (
                b"DELETE /lease HTTP/1.1\r\n\r\n",
                "404 Not Found",
                "no route DELETE",
            ),
            (
                b"POST /result/x HTTP/1.1\r\n\r\n",
                "400 Bad Request",
                "bad lease id",
            ),
        ];
        for (raw, status, message) in cases {
            let (line, error) = exchange(&server.shared, raw);
            let shown = String::from_utf8_lossy(raw);
            assert_eq!(line, format!("HTTP/1.1 {status}"), "{shown:?}: {error}");
            assert!(error.contains(message), "{shown:?}: {error}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A request head that never ends — 1 MiB with no newline, or a valid
    /// request line followed by endless headers — is refused at the cap
    /// with a clean 431 instead of growing one line buffer.
    #[test]
    fn an_endless_request_head_is_refused_at_the_cap() {
        let headers = b"GET /lease HTTP/1.1\r\n"
            .iter()
            .chain(b"X-Filler: 0123456789\r\n".repeat(1 << 15).iter())
            .copied()
            .collect::<Vec<u8>>();
        for flood in [vec![b'a'; 1 << 20], headers] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let sender = std::thread::spawn(move || {
                let mut client = TcpStream::connect(addr).unwrap();
                // The server stops reading at the cap and hangs up, so the
                // tail of this write may fail; only the refusal matters.
                let _ = client.write_all(&flood);
            });
            let (mut served, _) = listener.accept().unwrap();
            served.set_read_timeout(Some(SOCKET_TIMEOUT)).unwrap();
            let Err((status, body)) = read_request(&mut served) else {
                panic!("an over-cap request head was accepted");
            };
            assert_eq!(status, 431, "{body}");
            assert!(
                body.contains(&format!("{MAX_HEAD_BYTES}-byte cap")),
                "{body}"
            );
            drop(served);
            sender.join().unwrap();
        }
    }

    #[test]
    fn an_accept_failure_ends_run_with_its_error() {
        let (server, dir) = two_trial_server("fig5", "accept");
        let shared = Arc::clone(&server.shared);
        let running = std::thread::spawn(move || server.run());
        shared.accept_failed(&std::io::Error::other("injected"));
        assert_eq!(
            running.join().unwrap(),
            Err("accept failed: injected".to_string())
        );
        assert!(!shared.fold.lock().unwrap().complete);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every well-formed-but-wrong artifact is refused cleanly — exit 1 or
    /// a 4xx, never a panic or a report — by each entry point that reads
    /// untrusted state: `repro merge`, `repro resume` (the artifact
    /// installed as the newest checkpoint) and the coordinator's
    /// `POST /result/<id>`.
    #[test]
    fn hostile_artifacts_are_refused_at_every_entry_point() {
        let (server, dir) = two_trial_server("fig6", "hostile-artifacts");
        let run = |args: &[&std::path::Path]| {
            let args: Vec<String> = args
                .iter()
                .map(|a| a.to_str().unwrap().to_string())
                .collect();
            crate::cli::run(&args)
        };
        for (case, text) in hostile_fig6_artifacts() {
            let case_dir = dir.join(case.replace(' ', "-"));
            let shards = case_dir.join("shards");
            std::fs::create_dir_all(&shards).unwrap();
            std::fs::write(shards.join("fig6.s0of1.shardstate.json"), &text).unwrap();
            let out = case_dir.join("merged");
            let merge = [
                std::path::Path::new("merge"),
                &shards,
                "--out".as_ref(),
                &out,
            ];
            assert_eq!(run(&merge), ExitCode::FAILURE, "merge accepted {case}");
            assert!(!out.join("fig6_half_cw_slots_64.csv").exists(), "{case}");

            let resumed = case_dir.join("resume");
            let ckpt = resumed.join(checkpoint::CHECKPOINT_DIR);
            std::fs::create_dir_all(&ckpt).unwrap();
            let name = checkpoint::checkpoint_file_name("fig6", 0);
            std::fs::write(ckpt.join(&name), &text).unwrap();
            std::fs::write(ckpt.join(checkpoint::LATEST_FILE), format!("{name}\n")).unwrap();
            let resume = ["resume".as_ref(), resumed.as_path()];
            assert_eq!(run(&resume), ExitCode::FAILURE, "resume accepted {case}");

            let post = format!(
                "POST /result/0 HTTP/1.1\r\nContent-Length: {}\r\n\r\n{text}",
                text.len()
            );
            let (line, error) = exchange(&server.shared, post.as_bytes());
            assert!(line.starts_with("HTTP/1.1 4"), "{case}: {line}: {error}");
        }
        assert_eq!(server.shared.fold.lock().unwrap().state.recorded(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
