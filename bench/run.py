#!/usr/bin/env python3
"""End-to-end benchmark of kafw, with a traced per-layer breakdown.

    python3 bench/run.py --workload birthday-n16 --seed 1 --seconds 30 --trace 0

Workloads: birthday-n16, quartet-n8, exhaustive (see bench/README.md).
Run from the root of a checkout; the benchmark imports kafw from that
checkout's src/ and nowhere else.

--trace 0 times the workload for --seconds and reports the end-to-end
metrics.  --trace 1 runs a fixed number of operations twice, untraced and
then traced, and reports the per-layer metrics.  Every operation's output
is checked, and the stream of operation records at the default seed must
hash to the digest pinned below.  stdout carries an environment line, a
detail line and, last, the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, instrument, layer_metrics
from workloads import SWEEP_CASES, WORKLOADS, BirthdayN16  # exits 1 when src/kafw is missing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0
# sha256 of the first `pin_ops` operation records of each workload at
# DEFAULT_SEED.  Bit-exact replay means these never change.
PINNED = {
    "birthday-n16": "f90967e0adcdc8bd1cb4174d2ca9ffd0b45a5fa136411aa25d4e55ca290f36f6",
    "quartet-n8": "09c658e87a822c568e9d8eb65a4731b2aa2c3b295f3075b6fdb206dce7ca7ccf",
    "exhaustive": "c2d49b10fc1fc3bafa61270180db2c216822923b06dd45d898edfd7c3e6082a4",
}
SETUP_SAMPLES = 5
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile q among n samples."""
    return max(1, -(-round(10 * q) * n // 1000))


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90 with at least ten of n samples beyond it.

    Below 100 samples none qualifies and the tail is the maximum (100).
    """
    for q in TAIL_PERCENTILES:
        if n - _rank(n, q) >= 10:
            return q
    return 100.0


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    return sorted(samples)[_rank(len(samples), q) - 1]


# The host's speed drifts by up to a quarter over seconds to tens of seconds,
# for every process alike.  So while operations run, a fixed reference loop
# also runs every PROBE_EVERY_S (on SIGALRM, between bytecodes of the main
# thread), and each operation's time is divided by the host's slowdown: the
# mean reference time over the samples taken from SMOOTH_S before the
# operation to SMOOTH_S after it, over REFERENCE_S.  REFERENCE_S is the
# loop's typical time on a 2-vCPU Xeon VM, so reported seconds read as
# seconds of such a host at its usual speed.  The probe's own time is taken
# out of the operation it interrupted.
PROBE_EVERY_S = 0.25
SMOOTH_S = 1.0
REFERENCE_S = 0.0115


def reference_loop_s(clock=time.perf_counter) -> float:
    """Seconds taken by fixed interpreter-bound work: carry-less products,
    dict traffic and small BLAKE2b digests, like the library's own."""
    start = clock()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        a, b, r = i * 2654435761 & 0xFFFF, i ^ 0x5A5A, 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> 16:
                a ^= 0x1002B
        counts[r] = counts.get(r, 0) + 1
        acc ^= int.from_bytes(hashlib.blake2b(r.to_bytes(8, "little"), digest_size=8).digest(), "little")
    return clock() - start


class SpeedProbe:
    """Samples the host's slowdown on a timer while the `with` block runs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times = array("d")
        self.slowdowns = array("d")
        self.spent = 0.0  # seconds spent in the probe so far
        self._sample()

    def _sample(self, signum=None, frame=None):
        start = self.clock()
        self.slowdowns.append(reference_loop_s(self.clock) / REFERENCE_S)
        self.times.append(start)
        self.spent += self.clock() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown sampled within SMOOTH_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - SMOOTH_S)
        hi = bisect.bisect_right(self.times, end + SMOOTH_S)
        window = self.slowdowns[lo:hi] or self.slowdowns[max(0, lo - 1):lo + 1]
        return sum(window) / len(window)


@dataclass
class Pass:
    """One pass over a workload's operations."""

    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0  # time in operations, probe excluded
    elapsed: float = 0.0  # the same, speed-normalised when probed
    latencies: dict = field(default_factory=dict)  # kind -> array of seconds, ops that passed
    slowdowns: array = field(default_factory=lambda: array("d"))
    digest: str = ""
    errors: list = field(default_factory=list)


def run_pass(w, *, ops=None, seconds=None, tracer=None, probe=True, clock=time.perf_counter) -> Pass:
    """Run operations 0, 1, ... of w: exactly `ops` of them, or else until
    `seconds` of wall time have passed, at least w.min_ops ran and the kind
    cycle is whole.  Without the probe, times are wall times.

    An operation that raises (an InvariantBroken, or any error from the
    library) is recorded and counted as failed; the pass goes on.
    """
    result = Pass()
    h = hashlib.sha256()
    speed = SpeedProbe(clock) if probe else None
    pending = deque()  # (kind or None if failed, start, seconds), not yet normalised

    def settle(until):
        """Normalise the operations that ended more than SMOOTH_S before `until`."""
        while pending and pending[0][1] + pending[0][2] + SMOOTH_S < until:
            kind, t0, t = pending.popleft()
            normalised = t / (speed.slowdown(t0, t0 + t) if speed else 1.0)
            result.wall_s += t
            result.elapsed += normalised
            if kind:
                result.latencies.setdefault(kind, array("d")).append(normalised)

    start = clock()
    i = 0
    with speed or contextlib.nullcontext():
        while True:
            if ops is not None:
                if i >= ops:
                    break
            elif i >= w.min_ops and i % w.cycle == 0 and clock() - start >= seconds:
                break
            kind = w.kind(i)
            spent = speed.spent if speed else 0.0
            passed = True
            t0 = clock()
            try:
                if tracer is None:
                    record = w.op(i)
                else:
                    with tracer.span(kind, trial=i):
                        record = w.op(i)
            except Exception as exc:  # a failed operation must not end the run
                passed = False
                record = {"i": i, "error": type(exc).__name__, "message": str(exc)}
                result.failed += 1
                if len(result.errors) < 5:
                    result.errors.append(f"op {i} ({kind}): {type(exc).__name__}: {exc}")
            t = clock() - t0 - ((speed.spent if speed else 0.0) - spent)
            pending.append((kind if passed else None, t0, t))
            settle(speed.times[-1] if speed else math.inf)
            record["kind"] = kind
            h.update((json.dumps(record, sort_keys=True) + "\n").encode())
            i += 1
    settle(math.inf)
    if speed:
        result.slowdowns = speed.slowdowns
    result.ops = i
    result.digest = h.hexdigest()
    return result


def pinned_replay_ok(cls) -> bool:
    """Replays the pinned prefix at DEFAULT_SEED and compares its digest."""
    replay = run_pass(cls(DEFAULT_SEED), ops=cls.pin_ops)
    return replay.failed == 0 and replay.digest == PINNED[cls.name]


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the workload being ready,
    as measured and normalised by reference loops run just before and after."""
    before = reference_loop_s()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    slowdown = (before + reference_loop_s()) / 2 / REFERENCE_S
    return wall, wall / slowdown


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, load) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kafw").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": load,
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
    }


def job_metrics(p: Pass) -> dict:
    """Time-to-answer per exhaustive job kind; 0 where the workload has none."""
    lat = p.latencies
    sweeps = lat.get("sweep", ())
    return {
        "audit_s": (statistics.median(lat["audit"]) if lat.get("audit") else 0.0, "s"),
        "sweep_cases_per_s": (SWEEP_CASES * len(sweeps) / sum(sweeps) if sweeps else 0.0, "1/s"),
        "perm_table_s": (statistics.median(lat["perm_table"]) if lat.get("perm_table") else 0.0, "s"),
    }


def timed_run(cls, args) -> tuple[dict, dict, int, int]:
    setup = [setup_sample(cls.name, args.seed) for _ in range(SETUP_SAMPLES)]
    w = cls(args.seed)
    p = run_pass(w, seconds=args.seconds)
    rss = peak_rss_mb()
    pinned = pinned_replay_ok(cls)
    samples = [t for lat in p.latencies.values() for t in lat]
    q = tail_percentile(cls.min_ops)
    completed = p.ops - p.failed
    metrics = {
        "trials_per_s": (completed / p.elapsed, "1/s"),
        "trial_p50_ms": (1e3 * statistics.median(samples) if samples else 0.0, "ms"),
        "trial_tail_ms": (1e3 * percentile(samples, q) if samples else 0.0, "ms"),
        "setup_s": (statistics.median(norm for _, norm in setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {
        "ops": p.ops,
        "failed": p.failed,
        "failed_frac": (p.failed + (not pinned)) / (p.ops + 1),
        "wall_s": p.wall_s,
        "wall_trials_per_s": completed / p.wall_s,
        "slowdown_median": statistics.median(p.slowdowns),
        "tail_percentile": q,
        "tail_samples_beyond": len(samples) - _rank(len(samples), q),
        "setup_wall_s": [wall for wall, _ in setup],
        "digest": p.digest,
        "pinned_digest_ok": pinned,
        "per_kind_p50_ms": {k: 1e3 * statistics.median(v) for k, v in p.latencies.items()},
        "jobs": {k: v for k, (v, _) in job_metrics(p).items()},
        "errors": p.errors,
    }
    return metrics, detail, p.ops + 1, p.failed + (not pinned)


def traced_run(cls, args) -> tuple[dict, dict, int, int]:
    n = max(1, round(args.seconds * cls.trace_ops_per_s / cls.cycle)) * cls.cycle
    w = cls(args.seed)
    plain = run_pass(w, ops=n)
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        with tracer.span("run"):
            traced = run_pass(w, ops=n, tracer=tracer, probe=False)
    finally:
        undo()
    rss = peak_rss_mb()
    pinned = pinned_replay_ok(cls)
    same = traced.digest == plain.digest
    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"spans-{cls.name}-seed{args.seed}.ndjson"
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, BirthdayN16.QE)
    metrics.update(job_metrics(plain))
    metrics["trace.ops"] = (n, "count")
    metrics["trace.overhead_frac"] = (traced.wall_s / plain.wall_s - 1, "ratio")
    metrics["trace.peak_rss_mb"] = (rss, "MB")
    failed = plain.failed + traced.failed + (not pinned) + (not same)
    detail = {
        "ops_per_pass": n,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "digest_untraced": plain.digest,
        "digest_traced": traced.digest,
        "pinned_digest_ok": pinned,
        "spans": str(spans_path),
        "errors": plain.errors + traced.errors,
    }
    return metrics, detail, 2 * n + 2, failed


def main(argv=None) -> int:
    load = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    print(json.dumps({"env": environment(args, load)}), flush=True)
    run = traced_run if args.trace else timed_run
    metrics, detail, attempted, failed = run(cls, args)
    print(json.dumps({"detail": detail}), flush=True)
    for line in detail["errors"]:
        print(line, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
