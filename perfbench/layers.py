"""Per-layer probes for the traced run, timed from outside around library calls.

Each probe calls one layer of the package on a fixed cell, so its numbers do
not depend on the workload or the seed. The necklace-test and comparison
counts are exact: every pass must reproduce them, and they are compared with
the values recorded in ``expected.json``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

from bwcycles import combmaps
from bwcycles.grandmama import GenStats, generate_by_successor, generate_concat, iter_concat_prefixes
from bwcycles.msr import generate_msr
from bwcycles.words import ParamSet
from harness import Tally, Tracer, median
from workloads import CONCAT_CELL, MSR_CELL, VERIFY_CELL

# Concat, materialize and h1 share the concat-stream cell (also the large
# query-mix decode), h2 uses the msr-stream cell and the oracle the
# verify-cycle cell, so each probe times the engine behind one workload.
H1_STEPS = 50_000
DECODE_CELL = (16, 8)  # ucycle_subsets(n, k), read at seeded random positions
DECODE_CALLS = 20_000
UCYCLE_CALLS = ((combmaps.ucycle_subsets, 16, 8), (combmaps.ucycle_multisets_freq, 9, 6),
                (combmaps.ucycle_multisets_diff, 8, 5))
ORACLE_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_child.py")


def _timed(tracer: Tracer, name: str, fn):
    with tracer.span(name):
        start = time.perf_counter()
        value = fn()
        return time.perf_counter() - start, value


def probe_concat(tracer, rng):
    p, stats = CONCAT_CELL, GenStats()
    secs, n = _timed(tracer, "grandmama.concat",
                     lambda: sum(len(c) for c in iter_concat_prefixes(p, stats)))
    error = None if n == p.universe_size else f"concat emitted {n} of {p.universe_size}"
    return ({"grandmama.concat.sym_per_s": n / secs},
            {"grandmama.concat": [stats.necklace_tests, stats.comparisons, n]}, error)


def probe_materialize(tracer, rng):
    p = CONCAT_CELL
    secs, cycle = _timed(tracer, "grandmama.materialize", lambda: generate_concat(p))
    error = None if len(cycle) == p.universe_size else "materialized cycle has the wrong length"
    return {"grandmama.materialize.sym_per_s": len(cycle) / secs}, {}, error


def probe_h1(tracer, rng):
    p, stats = CONCAT_CELL, GenStats()
    secs, cycle = _timed(tracer, "grandmama.h1",
                         lambda: generate_by_successor(p, steps=H1_STEPS, stats=stats))
    n = len(cycle)
    error = None if n == H1_STEPS + p.n else f"h1 emitted {n} symbols"
    return ({"grandmama.h1.sym_per_s": n / secs},
            {"grandmama.h1": [stats.necklace_tests, stats.comparisons, n]}, error)


def probe_h2(tracer, rng):
    p, stats = MSR_CELL, GenStats()
    secs, cycle = _timed(tracer, "msr.h2", lambda: generate_msr(p, stats=stats))
    n = len(cycle)
    error = None if n == p.universe_size else f"msr emitted {n} of {p.universe_size}"
    return ({"msr.h2.sym_per_s": n / secs},
            {"msr.h2": [stats.necklace_tests, stats.comparisons, n]}, error)


def probe_oracle(tracer, rng):
    """Enumerate and verify in a fresh child, so its peak RSS is the oracle's alone."""
    p = VERIFY_CELL
    cmd = [sys.executable, ORACLE_CHILD, str(p.t), str(p.n), str(p.w)]
    with tracer.span("oracle.child"):
        proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return {}, {}, f"oracle child exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
    rep = json.loads(proc.stdout)
    error = None if rep["ok"] and rep["windows"] == p.universe_size else "oracle rejected the cycle"
    return ({"oracle.enumerate_s": rep["enumerate_s"],
             "oracle.verify.windows_per_s": rep["windows"] / rep["verify_s"],
             "oracle.peak_rss_mb": rep["peak_rss_mb"]}, {}, error)


def probe_combmaps(tracer, rng):
    n, k = DECODE_CELL
    cycle = combmaps.ucycle_subsets(n, k)
    positions = [rng.randrange(len(cycle)) for _ in range(DECODE_CALLS)]
    decode = combmaps.decode_window
    secs, objs = _timed(tracer, "combmaps.decode", lambda: [decode(cycle, i) for i in positions])
    error = None if all(len(o.elements) == k for o in objs) else "decoded a subset of the wrong size"
    total = 0.0
    for maker, a, b in UCYCLE_CALLS:
        total += _timed(tracer, "combmaps.ucycle", lambda: maker(a, b))[0]
    return ({"combmaps.decode_us": 1e6 * secs / DECODE_CALLS,
             "combmaps.ucycle_s": total / len(UCYCLE_CALLS)}, {}, error)


PROBES = (probe_concat, probe_materialize, probe_h1, probe_h2, probe_oracle, probe_combmaps)


def run_probes(tracer: Tracer, seed: int, passes: int, recorded: dict,
               tally: Tally) -> tuple[dict[str, float], dict[str, list[int]]]:
    """Run every probe ``passes`` times; return per-metric medians and the exact counts.

    Counts are [necklace tests, inner-loop steps, symbols]. A count that
    differs between passes is a failure, since the engines are deterministic.
    A count that differs from ``recorded`` is printed as drift: behaviour
    changed, which is not noise.
    """
    rng = random.Random(seed)
    values: dict[str, list[float]] = {}
    counts: dict[str, list[int]] = {}
    for _ in range(passes):
        for probe in PROBES:
            metrics, got, error = probe(tracer, rng)
            tally.record(error, probe.__name__)
            for name, v in metrics.items():
                values.setdefault(name, []).append(v)
            for name, c in got.items():
                first = counts.setdefault(name, c)
                tally.record(None if first == c else f"{first} then {c}", f"{name} counts")
    out = {name: median(v) for name, v in values.items()}
    for name, (tests, iters, symbols) in counts.items():
        out[f"{name}.tests_per_sym"] = tests / symbols
        if name != "grandmama.h1":
            # one inner-loop step is at most two symbol comparisons
            out[f"{name}.cmp_per_sym"] = 2 * iters / symbols
        if recorded.get(name, [tests, iters, symbols]) != [tests, iters, symbols]:
            print(f"count drift: {name} recorded {recorded[name]}, now {[tests, iters, symbols]}")
    return out, counts
