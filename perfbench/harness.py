"""Measurement primitives shared by the workloads and the layer suite.

Everything here lives outside the package under test: a stdout sink that
counts and hashes bytes, a span recorder, the job runner around
``bwcycles.cli.main``, the tail percentile, the machine-speed reference and
the environment record.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def require_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2 if it is absent.

    The benchmark measures the code of its own checkout, never an installed copy.
    """
    if not os.path.isfile(os.path.join(SRC, "bwcycles", "cli.py")):
        print(f"error: no bwcycles sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


class Sink(io.TextIOBase):
    """Write-only text stream that counts and hashes what it receives.

    ``keep=True`` also retains the text, for short outputs that get parsed.
    """

    def __init__(self, keep: bool = False):
        self.nbytes = 0
        self._hash = hashlib.sha256()
        self._parts: list[str] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        b = s.encode()
        self.nbytes += len(b)
        self._hash.update(b)
        if self._parts is not None:
            self._parts.append(s)
        return len(s)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def text(self) -> str:
        return "".join(self._parts or ())


class Tracer:
    """In-memory spans (name, start, end, parent index, attributes).

    A disabled tracer hands out one shared no-op context, so untraced runs
    pay a method call per span and nothing else.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []
        self._null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        if not self.enabled:
            return self._null
        return self._record(name, attrs)

    @contextlib.contextmanager
    def _record(self, name, attrs):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, attrs]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def summary(self) -> dict:
        """Per span name: count, total seconds and self seconds (total minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**extra, "summary": self.summary(),
                       "spans": [{"name": n, "start": s, "end": e, "parent": p, **a}
                                 for n, s, e, p, a in self.spans]}, fh)


@dataclass
class Job:
    """One ``cli.main`` call and what its output must look like.

    ``symbols`` is what the job delivers (or checks, for verify); ``check``
    gets (exit code, sink) and returns an error string or None; ``replay``
    does the same work through library calls alone, with spans on ``Tracer``.
    """

    argv: list[str]
    symbols: int
    check: Callable[[int, Sink], str | None]
    replay: Callable[[Tracer], object]
    kind: str = "job"
    keep: bool = False


@dataclass
class JobResult:
    seconds: float
    error: str | None
    digest: str


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, error: str | None, what: str) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{what}: {error}")


def run_job(main, job: Job, tracer: Tracer) -> JobResult:
    """Run one job through ``main`` with stdout and stderr captured, then check it.

    Only the call itself is timed; the heap is collected beforehand so one
    job's garbage does not land in the next job's time.
    """
    gc.collect()
    out, err = Sink(keep=job.keep), Sink(keep=True)
    error = None
    with tracer.span("cli.main", kind=job.kind):
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(job.argv)
        except Exception as exc:  # a crash is a failed operation, not a harness error
            code, error = None, f"raised {exc!r}"
        seconds = time.perf_counter() - start
    if error is None:
        if code != 0:
            error = f"exit {code}: {err.text().strip()[:200]}"
        else:
            try:
                error = job.check(code, out)
            except Exception as exc:
                error = f"check raised {exc!r}"
    return JobResult(seconds, error, out.hexdigest())


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    That is the 11th largest sample. Fewer than 11 samples give the maximum,
    reported as percentile 100.
    """
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


# What ``reference_seconds`` takes on the machine the bounds were set on
# (Intel Xeon, 2 vCPUs, Python 3.11.7) in its usual state.
REFERENCE_NOMINAL_S = 0.016


def reference_seconds() -> float:
    """Time a fixed pure-Python computation that does not touch the package.

    It builds the k=4, n=8 de Bruijn sequence by Duval's Lyndon-word
    iteration and renders it as one string: the same kind of interpreter and
    allocator work as generating and printing a cycle. On a shared host its
    time drifts together with the workloads' (by tens of percent over
    minutes), so it measures how fast the machine runs at the moment. Timed
    right after a round of jobs, it tracks them much more closely than when
    timed back to back. It allocates about 5 MB, so a run that reports peak
    RSS reads it before the first call.
    """
    gc.collect()
    start = time.perf_counter()
    k, n = 4, 8
    w, seq = [-1], []
    while w:
        w[-1] += 1
        m = len(w)
        if n % m == 0:
            seq.extend(w)
        while len(w) < n:
            w.append(w[-m])
        while w and w[-1] == k - 1:
            w.pop()
    text = "".join(map(str, seq))
    elapsed = time.perf_counter() - start
    if len(text) != k ** n:
        raise RuntimeError(f"reference sequence has {len(text)} symbols")
    return elapsed


def at_nominal_speed(value: float, unit: str, scale: float) -> float:
    """Rescale a measured value to a machine that runs the reference in nominal time.

    Rates (1/s) are multiplied by ``scale`` and times (s, ms, us) divided by
    it; counts, sizes and ratios are returned as they are.
    """
    if unit == "1/s":
        return value * scale
    if unit in ("s", "ms", "us"):
        return value / scale
    return value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(repeats: int) -> list[tuple[float, float]]:
    """Wall time to start a fresh interpreter and ``import bwcycles.cli``.

    Returns (seconds, reference seconds) pairs: each start is followed by one
    reference computation. One untimed start first compiles the bytecode
    cache, which an installed package already has.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import bwcycles.cli"]
    subprocess.run(cmd, env=env, check=True)
    pairs = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        pairs.append((time.perf_counter() - start, reference_seconds()))
    return pairs


def environment() -> dict:
    """What a result set must carry so numbers from other machines are not mixed in."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "loadavg_start": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
    }
