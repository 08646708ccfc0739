"""Pure helpers of the benchmark: percentiles, span self time, output
digests and byte diffs, and failure accounting. `run.py` does the process
work; everything here is a function of its arguments and is covered by
`tests/test_benchlib.py`."""

import hashlib
import os
import re
import statistics

# Percentiles a timing distribution may report as its tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def rank(n, pct):
    """1-based nearest rank of percentile pct among n samples, in exact
    integer arithmetic (pct has at most one decimal)."""
    tenths = round(pct * 10)
    return max(1, -(-tenths * n // 1000))


def nearest_rank(sorted_values, pct):
    """The nearest-rank percentile: the smallest value with at least pct %
    of the samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[rank(len(sorted_values), pct) - 1]


def tail_pct(n):
    """The highest ladder percentile with at least TAIL_BEYOND of n samples
    beyond it, or 100 (the maximum) when even the median has fewer."""
    best = 100.0
    for pct in TAIL_LADDER:
        if n - rank(n, pct) >= TAIL_BEYOND:
            best = pct
    return best


def summarize(name, values):
    """`{name.p50, name.tail, name.tail_pct, name.n}` for one distribution;
    all zero when the layer did not run on this workload."""
    if not values:
        return {f"{name}.p50": 0.0, f"{name}.tail": 0.0, f"{name}.tail_pct": 0.0, f"{name}.n": 0}
    ordered = sorted(values)
    pct = tail_pct(len(ordered))
    tail = ordered[-1] if pct == 100.0 else nearest_rank(ordered, pct)
    return {
        f"{name}.p50": nearest_rank(ordered, 50.0),
        f"{name}.tail": tail,
        f"{name}.tail_pct": pct,
        f"{name}.n": len(ordered),
    }


class Span:
    __slots__ = ("index", "name", "parent", "start", "end", "work", "root")

    def __init__(self, index, name, parent, start, end, work):
        self.index, self.name, self.parent = index, name, parent
        self.start, self.end, self.work = start, end, work
        self.root = name

    @property
    def duration(self):
        return self.end - self.start


def load_spans(rows):
    """Spans from the probe's `[name, parent, start_ns, end_ns, work]` rows
    (parent -1 = root; parents precede children). Each span learns the name
    of its root span, which tells a pass apart from a replay or a probe."""
    spans = []
    for i, (name, parent, start, end, work) in enumerate(rows):
        span = Span(i, name, parent, start, end, work)
        if parent >= 0:
            span.root = spans[parent].root
        spans.append(span)
    return spans


def covered(intervals):
    """Total length of the union of half-open intervals."""
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent; overlapping children
    counted once)."""
    children = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.index, [])]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        out.append(s.duration - covered(kids))
    return out


def self_time_table(spans):
    """`{name: {"count", "total_s", "self_s"}}`, summed over spans."""
    table = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration / 1e9
        row["self_s"] += own / 1e9
    return table


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_dir(path, skip=("checkpoints", "metrics.json")):
    """`{file name: sha256}` of the artifacts directly in `path`."""
    out = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if name in skip or not os.path.isfile(full):
            continue
        out[name] = sha256_file(full)
    return out


def dir_bytes(path, skip=("checkpoints", "metrics.json")):
    return sum(
        os.path.getsize(os.path.join(path, n))
        for n in os.listdir(path)
        if n not in skip and os.path.isfile(os.path.join(path, n))
    )


def diff_dirs(expected, actual, skip=("checkpoints", "metrics.json")):
    """Artifact names that differ byte-for-byte between two directories,
    including names present in only one of them."""
    a, b = digest_dir(expected, skip), digest_dir(actual, skip)
    return sorted(n for n in set(a) | set(b) if a.get(n) != b.get(n))


_META = re.compile(r"^\[([A-Za-z0-9_-]+)\] (.*)$")


def split_reports(stdout):
    """Splits the stdout of a figure run into `{experiment: report text}`
    and `{experiment: [artifact names]}`. A section ends at its
    `[name] done` line; `[name] ...` lines are bookkeeping, not report text
    (`repro` adds timings and paths there)."""
    reports, artifacts, lines = {}, {}, []
    for line in stdout.splitlines():
        meta = _META.match(line)
        if not meta:
            lines.append(line)
            continue
        name, rest = meta.groups()
        if rest.startswith("artifacts:"):
            artifacts[name] = rest[len("artifacts:"):].split()
        elif rest.startswith("done"):
            reports[name] = "\n".join(lines).strip()
            lines = []
    return reports, artifacts


def check_run(reference, stdout, out_dir):
    """Compares one figure run with its reference digests. Returns the
    experiments that failed (a report or any of its artifacts differs, or is
    missing) and one line per problem. Artifacts no experiment claims are
    charged to the last experiment, which is what a single-experiment
    `repro` run reports."""
    reports, _ = split_reports(stdout)
    files = digest_dir(out_dir)
    failed, problems = set(), []
    names = list(reference)
    for name in names:
        want = reference[name]
        if sha256_text(reports.get(name, "")) != want["report"]:
            failed.add(name)
            problems.append(f"{name}: report text differs" if name in reports else f"{name}: no report")
        for art, digest in want["artifacts"].items():
            if files.get(art) != digest:
                failed.add(name)
                problems.append(f"{name}: artifact {art} " + ("differs" if art in files else "missing"))
    claimed = {a for name in names for a in reference[name]["artifacts"]}
    for extra in sorted(set(files) - claimed):
        failed.add(names[-1])
        problems.append(f"unexpected artifact {extra}")
    return sorted(failed), problems


def reference_of(stdout, out_dir):
    """The reference digests of a run known to be right: per experiment,
    its report text digest and the digests of the artifacts it wrote."""
    reports, artifacts = split_reports(stdout)
    files = digest_dir(out_dir)
    out = {}
    names = list(reports)
    for name in names:
        owned = artifacts.get(name)
        if owned is None:
            owned = sorted(files) if len(names) == 1 else []
        out[name] = {"report": sha256_text(reports[name]), "artifacts": {a: files[a] for a in owned}}
    return out


class Tally:
    """Operations attempted and failed across a run's repetitions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problems=()):
        if failed > attempted:
            raise ValueError("more failures than attempts")
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def ok_frac(self):
        return 1.0 - self.failed_frac


def serve_tally(artifacts_differ, leases, accepted, reissued, worker_ok):
    """`(attempted, failed)` of one work-server run: the final artifact set
    plus every lease granted; failures are a differing artifact set, leases
    re-issued, POSTs not accepted, and a worker that did not exit cleanly."""
    attempted = 1 + leases
    failed = int(artifacts_differ) + reissued + max(0, leases - accepted) + int(not worker_ok)
    return attempted, min(failed, attempted)


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as `statistics.quantiles(n=4)`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
