#!/usr/bin/env python3
"""The repository benchmark: one command per workload that builds `repro`
and the benchmark's probe from source, runs the workload, checks its
outputs, and prints every metric by name and unit. The last stdout line is
`{"correct", "attempted", "failed", "metrics"}` as JSON.

    python3 perfbench/run.py --workload paper_figs --seed 1 --seconds 20 --trace 0

Run it from the repository root. `--trace 0` measures the end-to-end
metrics with tracing off; `--trace 1` makes a traced run and reports the
per-layer metrics instead (see perfbench/README.md). `--record-reference`
re-records the output digests the correctness check compares against.
"""

import argparse
import http.client
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

WORKLOADS = ("paper_figs", "scale_1e6", "serve_fig3")
REFERENCE = os.path.join(HERE, "reference.json")
# Cold-start samples behind each run's setup_s median.
SETUP_SAMPLES = {"paper_figs": 15, "scale_1e6": 9, "serve_fig3": 15}
# Busy threads per workload: the machine's cores for the in-process ones,
# one `repro work --threads 1` for the work-server run.
SERVE_ARGS = ["fig3", "--full", "--leases", "128", "--linger-secs", "1", "--json"]
SCALE_ARGS = ["scale", "--full", "--trials", "4", "--json"]
# Everything after the build must finish within this many seconds.
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

_children = []


def _watchdog():
    for p in list(_children):
        if p.poll() is None:
            p.kill()


def spawn(cmd, stdout=subprocess.PIPE, stderr=None):
    p = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL, text=True)
    _children.append(p)
    return p


def reap(p):
    """Waits for `p` and returns (exit code, user+sys CPU s, VmHWM MiB)."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    _children.remove(p)
    return p.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def stop(p):
    if p in _children:
        if p.poll() is None:
            p.kill()
        p.wait()
        _children.remove(p)


def run_measured(cmd, err_path):
    """Runs `cmd` to completion; returns its stdout and measurements."""
    with open(err_path, "w") as err:
        started = time.perf_counter()
        p = spawn(cmd, stderr=err)
        out = p.stdout.read()
        code, cpu, rss = reap(p)
        wall = time.perf_counter() - started
    if code != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {code}: {tail(err_path)}")
    return out, {"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": rss}


def tail(path, lines=5):
    try:
        with open(path) as f:
            return " | ".join(f.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# Build and host
# ---------------------------------------------------------------------------


def build(root):
    for need in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "experiments")):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"no {need} here: run from the repository root")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join("perfbench", "probe", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL).returncode:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "repro"), os.path.join(release, "perfbench-probe")


def read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def host_fingerprint(root, workload):
    cpu = re.search(r"^model name\s*:\s*(.+)$", read_text("/proc/cpuinfo"), re.M)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read_text(os.path.join(base, index, "level")).strip()
        kind = read_text(os.path.join(base, index, "type")).strip()
        size = read_text(os.path.join(base, index, "size")).strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = size
        elif level == "1":
            caches[f"L1{kind[:1].lower()}"] = size
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": cpu.group(1).strip() if cpu else platform.processor(),
        "caches": caches,
        "rustc": rustc,
        "commit": commit,
        "source_digest": source_digest(root),
        "busy_threads": 1 if workload == "serve_fig3" else nproc,
        "python": platform.python_version(),
    }


def source_digest(root):
    """sha256 over the program's sources — names the code measured when the
    checkout is not a git repository."""
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("src", "crates", "vendor"):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.relpath(os.path.join(d, f), root) for f in sorted(files)]
    h = benchlib.hashlib.sha256()
    for rel in sorted(paths):
        h.update(rel.encode())
        h.update(benchlib.sha256_file(os.path.join(root, rel)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, root, work, repro, probe, reference):
        self.root, self.work, self.repro, self.probe = root, work, repro, probe
        self.reference = reference
        self.tally = benchlib.Tally()
        self._n = 0

    def fresh(self, tag):
        self._n += 1
        path = os.path.join(self.work, f"{self._n:03d}-{tag}")
        os.makedirs(path)
        return path

    def check_figures(self, key, stdout, out_dir):
        ref = self.reference[key]
        failed, problems = benchlib.check_run(ref, stdout, out_dir)
        self.tally.add(len(ref), len(failed), problems)

    # -- in-process workloads ------------------------------------------------

    def figures_pass(self, workload, traced):
        """One probe pass of an in-process workload; returns its
        measurements and, when traced, its spans document."""
        out = self.fresh(f"{workload}-pass")
        cmd = [self.probe, "figures", workload, "--out", out]
        spans = out + ".spans.json"
        if traced:
            cmd += ["--spans", spans]
        stdout, m = run_measured(cmd, out + ".err")
        self.check_figures(workload, stdout, out)
        m["artifact_bytes"] = benchlib.dir_bytes(out)
        if not traced:
            return m, None
        with open(spans) as f:
            return m, json.load(f)

    def scale_repro(self):
        out = self.fresh("scale")
        stdout, m = run_measured([self.repro, *SCALE_ARGS, "--out", out], out + ".err")
        self.check_figures("scale_1e6", stdout, out)
        return m

    def setup_in_process(self, workload):
        samples = []
        for _ in range(SETUP_SAMPLES[workload]):
            stdout, _ = run_measured([self.probe, "setup", workload], os.path.join(self.work, "setup.err"))
            samples.append(float(stdout.split()[-1]))
        return samples

    # -- work-server workload -------------------------------------------------

    def launch_coordinator(self, out):
        """Starts `repro serve` on an ephemeral port; returns the process,
        its launch time and the address it listens on."""
        started = time.perf_counter()
        with open(out + ".coord.err", "w") as err:
            coord = spawn([self.repro, "serve", *SERVE_ARGS, "--port", "0", "--out", out], stderr=err)
        line = coord.stdout.readline()
        port = re.search(r" on [^ ]*:(\d+): ", line)
        if not port:
            stop(coord)
            raise BenchError(f"coordinator did not start: {line.strip()} {tail(out + '.coord.err')}")
        return coord, started, f"127.0.0.1:{port.group(1)}"

    def setup_serve(self):
        """Coordinator launch until it grants the first lease, claimed from
        here; the coordinator is then killed. This includes the accept
        loop's poll wait, which every later request pays too."""
        samples = []
        for _ in range(SETUP_SAMPLES["serve_fig3"]):
            out = self.fresh("serve-setup")
            coord, started, addr = self.launch_coordinator(out)
            host, port = addr.split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            conn.request("GET", "/lease")
            body = conn.getresponse().read().decode()
            samples.append(time.perf_counter() - started)
            conn.close()
            stop(coord)
            if '"status":"lease"' not in body:
                raise BenchError(f"first claim got no lease: {body}")
        return samples

    def direct_fig3(self):
        """The single-process `repro fig3 --full --json` run the work-server
        output must equal byte for byte; itself checked against reference."""
        out = self.fresh("fig3-direct")
        stdout, _ = run_measured([self.repro, "fig3", "--full", "--json", "--out", out], out + ".err")
        self.check_figures("fig3", stdout, out)
        return out

    def serve_pass(self, direct, worker_cmd):
        """Coordinator plus one worker; wall ends when the coordinator has
        written the final artifacts."""
        out = self.fresh("serve")
        coord, started, addr = self.launch_coordinator(out)
        with open(out + ".worker.out", "w") as wout, open(out + ".worker.err", "w") as werr:
            worker = spawn(worker_cmd(addr, out), stdout=wout, stderr=werr)
            wall, complete = None, None
            for line in coord.stdout:
                if " complete: " in line:
                    complete = line
                if " written to " in line:
                    wall = time.perf_counter() - started
                    break
            coord.stdout.read()
            c_code, c_cpu, c_rss = reap(coord)
            w_code, w_cpu, w_rss = reap(worker)
        if wall is None or complete is None:
            raise BenchError(f"coordinator ended early ({c_code}): {tail(out + '.coord.err')}")
        summary = re.search(r"(\d+) posts accepted, (\d+) duplicate trials discarded, (\d+) leases re-issued",
                            complete)
        accepted, duplicates, reissued = (int(x) for x in summary.groups())
        leases = len(re.findall(r"^\[work\] lease \d+: ", read_text(out + ".worker.out"), re.M))
        differ = benchlib.diff_dirs(direct, out)
        attempted, failed = benchlib.serve_tally(bool(differ), leases, accepted, reissued,
                                                 w_code == 0 and c_code == 0)
        problems = [f"serve artifact {d} differs from the direct run" for d in differ]
        if w_code != 0:
            problems.append(f"worker exited {w_code}: {tail(out + '.worker.err')}")
        self.tally.add(attempted, failed, problems)
        m = {"wall_s": wall, "cpu_s": c_cpu + w_cpu, "peak_rss_mib": c_rss + w_rss}
        counts = {"lease.count": leases, "lease.reissued": reissued,
                  "result.rejected": max(0, leases - accepted), "result.duplicate_trials": duplicates,
                  "io.artifact_bytes": benchlib.dir_bytes(out)}
        return m, counts

    def repro_worker(self, addr, out):
        return [self.repro, "work", "--connect", addr, "--threads", "1"]


def repeat(seconds, once):
    """Runs `once` back to back for about `seconds`: another repetition
    starts while it would end no more than half a repetition late."""
    results, started = [], time.perf_counter()
    while True:
        results.append(once())
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results


def end_to_end(bench, workload, seconds):
    if workload == "serve_fig3":
        setup = bench.setup_serve()
        direct = bench.direct_fig3()
        reps = [m for m, _ in repeat(seconds, lambda: bench.serve_pass(direct, bench.repro_worker))]
    elif workload == "scale_1e6":
        setup = bench.setup_in_process(workload)
        reps = repeat(seconds, bench.scale_repro)
    else:
        setup = bench.setup_in_process(workload)
        reps = [m for m, _ in repeat(seconds, lambda: bench.figures_pass(workload, False))]
    metrics = {k: benchlib.median([r[k] for r in reps]) for k in ("wall_s", "cpu_s", "peak_rss_mib")}
    metrics["setup_s"] = benchlib.median(setup)
    metrics["ok_frac"] = bench.tally.ok_frac
    samples = {k: [r[k] for r in reps] for k in ("wall_s", "cpu_s", "peak_rss_mib")}
    samples["setup_s"] = setup
    return metrics, {"samples": samples}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def distribution(spans, name, unit_ns, root=None, per_work=False):
    values = []
    for s in spans:
        if s.name != name or (root and s.root != root):
            continue
        if per_work:
            if s.work:
                values.append(s.duration / s.work)
        else:
            values.append(s.duration / unit_ns)
    return values


def layer_metrics(spans, names, extra):
    """Every per-layer metric from the spans of one traced run."""
    ms, us, s = 1e6, 1e3, 1e9
    m = {}
    dists = {
        "windowed.trial_ms": distribution(spans, "windowed.trial", ms),
        "windowed.ns_per_attempt": distribution(spans, "windowed.trial", 1, per_work=True),
        "noisy.trial_ms": distribution(spans, "noisy.trial", ms),
        "mac.trial_us": distribution(spans, "mac.trial", us),
        "mac.ns_per_attempt": distribution(spans, "mac.trial", 1, per_work=True),
        "event_queue.ns_per_op": distribution(spans, "event_queue.churn", 1, per_work=True),
        "medium.ns_per_period": distribution(spans, "medium.churn", 1, per_work=True),
        "dynamic.trial_ms": distribution(spans, "dynamic.trial", ms),
        "dynamic.ns_per_arrival": distribution(spans, "dynamic.trial", 1, per_work=True),
        "engine.sweep_s": distribution(spans, "engine.sweep", s, root="pass"),
        "aggregate.report_ms": distribution(spans, "aggregate.report", ms, root="replay"),
        "io.artifact_write_ms": distribution(spans, "io.artifact_write", ms, root="replay"),
        "shard.encode_ms": distribution(spans, "shard.encode", ms),
        "shard.parse_ms": distribution(spans, "shard.parse", ms),
        "checkpoint.write_ms": distribution(spans, "checkpoint.write", ms),
        "lease.get_ms": distribution(spans, "lease.get", ms),
        "result.post_ms": distribution(spans, "result.post", ms),
        "worker.lease_compute_ms": distribution(spans, "worker.lease_compute", ms),
    }
    for name, vals in dists.items():
        m.update(benchlib.summarize(name, vals))
    # Consecutive (1-thread, nproc-thread) sweep pairs; work = threads.
    par = [(x.work, x.duration) for x in spans if x.name == "engine.parallel"]
    effs = [one / (n * many) for (_, one), (n, many) in zip(par[::2], par[1::2]) if n > 1]
    m["engine.parallel_eff"] = benchlib.median(effs) if effs else 1.0
    encoded = sorted(s.work for s in spans if s.name == "shard.encode")
    m["shard.bytes"] = benchlib.median(encoded) if encoded else 0
    for name in names:
        if name.startswith("figures.") and name.endswith("_s"):
            span = name[: -len("_s")]
            m[name] = sum(x.duration for x in spans if x.name == span and x.root == "pass") / s
    m.update(extra)
    return m


def traced(bench, workload, seed):
    layers = os.path.join(bench.fresh("layers"), "spans.json")
    extra = {"lease.count": 0, "lease.reissued": 0, "result.rejected": 0, "result.duplicate_trials": 0}
    if workload == "serve_fig3":
        direct = bench.direct_fig3()
        spans_path = os.path.join(bench.work, "serve.spans.json")

        def probe_worker(traced):
            def cmd(addr, out):
                c = [bench.probe, "serve-worker", "--connect", addr, "--out", out + ".replay"]
                return c + (["--spans", spans_path] if traced else [])
            return cmd

        plain, _ = bench.serve_pass(direct, probe_worker(False))
        timed, counts = bench.serve_pass(direct, probe_worker(True))
        with open(spans_path) as f:
            doc = json.load(f)
        untraced_s, traced_s = plain["wall_s"], timed["wall_s"]
        extra.update(counts)
    else:
        plain, _ = bench.figures_pass(workload, False)
        timed, doc = bench.figures_pass(workload, True)
        # The traced process also replays layer calls after its pass.
        replay_s = sum(e - a for n, p, a, e, _ in doc["spans"] if n == "replay" and p < 0) / 1e9
        untraced_s, traced_s = plain["wall_s"], timed["wall_s"] - replay_s
        extra["io.artifact_bytes"] = timed["artifact_bytes"]
    extra["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    run_measured([bench.probe, "layers", workload, "--seed", str(seed), "--spans", layers], layers + ".err")
    with open(layers) as f:
        layer_rows = json.load(f)["spans"]
    offset = len(doc["spans"])
    rows = doc["spans"] + [[n, p + offset if p >= 0 else -1, a, b, w] for n, p, a, b, w in layer_rows]
    return benchlib.load_spans(rows), extra, {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def record_reference(root):
    """Re-records reference.json from the current program's outputs."""
    repro, probe = build(root)
    work = os.path.join(root, ".bench_out", "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ref = {}
    for key, cmd in (
        ("paper_figs", [probe, "figures", "paper_figs"]),
        ("scale_1e6", [repro, *SCALE_ARGS]),
        ("fig3", [repro, "fig3", "--full", "--json"]),
    ):
        out = os.path.join(work, key)
        os.makedirs(out)
        stdout, _ = run_measured(cmd + ["--out", out], out + ".err")
        ref[key] = benchlib.reference_of(stdout, out)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    log(f"wrote {REFERENCE}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if args.record_reference:
        record_reference(root)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(REFERENCE) as f:
        reference = json.load(f)
    repro, probe = build(root)

    timer = threading.Timer(RUN_DEADLINE_S, _watchdog)
    timer.daemon = True
    timer.start()
    work = os.path.join(root, ".bench_out", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(root, work, repro, probe, reference)
    try:
        if args.trace:
            spans, extra, detail = traced(bench, args.workload, args.seed)
            wanted = spec["per_layer"]
            metrics = layer_metrics(spans, [m["name"] for m in wanted], extra)
            detail["self_time"] = benchlib.self_time_table(spans)
        else:
            wanted = spec["end_to_end"]
            metrics, detail = end_to_end(bench, args.workload, args.seconds or spec["run_seconds"])
    finally:
        timer.cancel()
        for p in list(_children):
            stop(p)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    results = os.path.join(root, ".bench_out", "results")
    os.makedirs(results, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  host=host_fingerprint(root, args.workload), problems=bench.tally.problems, detail=detail)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)

    for problem in bench.tally.problems:
        print(f"FAILED: {problem}")
    for m in wanted:
        print(f"{m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_frac':<36} {bench.tally.failed_frac:>16.6g} frac")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: (_watchdog(), sys.exit(143)))
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, KeyError, ValueError) as e:
        _watchdog()
        log(f"perfbench: {e}")
        sys.exit(1)
