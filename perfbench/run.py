"""Benchmark for bwcycles: end-to-end runs of ``bwcycles.cli.main`` and per-layer probes.

    python3 perfbench/run.py --workload concat-stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client runs jobs in a closed loop, in this process, without threads. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs the
per-layer probes and the workload with spans recorded, and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. ``--workload all`` runs every
workload in a fresh process of its own. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from harness import (REFERENCE_NOMINAL_S, Tally, Tracer, at_nominal_speed, environment, median,
                     peak_rss_mb, reference_seconds, require_source, run_job, setup_seconds, tail)

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOAD_NAMES = ("concat-stream", "msr-stream", "verify-cycle", "query-mix")
SETUP_REPEATS = 11
PROBE_PASSES = 2

UNITS = {
    "sym_per_s": "1/s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s",
    "grandmama.concat.sym_per_s": "1/s", "grandmama.concat.tests_per_sym": "tests/sym",
    "grandmama.concat.cmp_per_sym": "cmp/sym", "grandmama.materialize.sym_per_s": "1/s",
    "grandmama.h1.sym_per_s": "1/s", "grandmama.h1.tests_per_sym": "tests/sym",
    "msr.h2.sym_per_s": "1/s", "msr.h2.tests_per_sym": "tests/sym", "msr.h2.cmp_per_sym": "cmp/sym",
    "cli.self_s": "s", "oracle.enumerate_s": "s", "oracle.verify.windows_per_s": "1/s",
    "oracle.peak_rss_mb": "MB", "combmaps.decode_us": "us", "combmaps.ucycle_s": "s",
    "trace.overhead_pct": "%",
}


def _run_round(main, jobs, tracer, tally) -> tuple[list[float], int]:
    """Run one round of jobs; return their latencies and the symbols they delivered."""
    latencies = []
    for job in jobs:
        res = run_job(main, job, tracer)
        tally.record(res.error, " ".join(job.argv))
        latencies.append(res.seconds)
    return latencies, sum(job.symbols for job in jobs)


def _closed_loop(rounds, deadline: float, step):
    """Call ``step(jobs)`` per round until the next round would end past ``deadline``.

    At least one round always runs.
    """
    last = 0.0
    for jobs in rounds:
        now = time.perf_counter()
        if last and now + last > deadline:
            return
        step(jobs)
        last = time.perf_counter() - now


def measure(name: str, seed: int, seconds: float, expected: dict, tally: Tally) -> dict:
    """Untraced run: the workload's jobs in a closed loop, then the set-up time.

    The reference computation runs after every round and after every timed
    interpreter start, and scales what was timed just before it to nominal
    speed. Peak RSS is read before its first call: every round repeats the
    same cells, so the first round already reaches the workload's peak. The
    interpreter starts are timed last for the same reason.
    """
    from bwcycles.cli import main
    from workloads import rounds

    off = Tracer(False)
    latencies: list[float] = []
    sym_rates: list[float] = []
    job_rates: list[float] = []
    reference: list[float] = []
    rss: list[float] = []

    def step(jobs):
        lat, symbols = _run_round(main, jobs, off, tally)
        if not rss:
            rss.append(peak_rss_mb())
        reference.append(reference_seconds())
        scale = reference[-1] / REFERENCE_NOMINAL_S
        latencies.extend(x / scale for x in lat)
        sym_rates.append(scale * symbols / sum(lat))
        job_rates.append(scale * len(lat) / sum(lat))

    _closed_loop(rounds(name, seed, expected), time.perf_counter() + seconds, step)
    setup = setup_seconds(SETUP_REPEATS)
    tail_s, pct = tail(latencies)
    scale = median(reference) / REFERENCE_NOMINAL_S
    print(f"samples: {len(sym_rates)} rounds, {len(latencies)} jobs;"
          f" job_tail_ms is p{pct:.1f} of {len(latencies)} jobs;"
          f" setup_s is the median of {SETUP_REPEATS} starts")
    print(f"speed: reference computation median {1e3 * median(reference):.3f} ms"
          f" (nominal {1e3 * REFERENCE_NOMINAL_S:g} ms); unscaled: sym_per_s"
          f" {median(sym_rates) / scale:.6g}, setup_s {median(t for t, _ in setup):.6g}")
    return {
        "sym_per_s": median(sym_rates),
        "jobs_per_s": median(job_rates),
        "job_p50_ms": 1e3 * median(latencies),
        "job_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": rss[0],
        "setup_s": median(t * REFERENCE_NOMINAL_S / ref for t, ref in setup),
    }


def measure_traced(name: str, seed: int, seconds: float, expected: dict, tally: Tally,
                   env: dict) -> dict:
    """Traced run: layer probes, then the workload's rounds traced, replayed and untraced.

    Each round runs three times in a row: through ``cli.main`` with spans, as
    library calls alone (the replay), and through ``cli.main`` without spans.
    ``cli.self_s`` is untraced CLI time minus replay time per round, and
    ``trace.overhead_pct`` is traced over untraced CLI time, minus one.
    Times and rates are scaled to nominal speed by the median time of the
    reference computation, run around the probes and after every round.
    """
    from bwcycles.cli import main
    from layers import run_probes
    from workloads import rounds

    deadline = time.perf_counter() + seconds
    tracer, off = Tracer(True), Tracer(False)
    reference = [reference_seconds() for _ in range(5)]
    with tracer.span("probes"):
        metrics, counts = run_probes(tracer, seed, PROBE_PASSES, expected.get("counts", {}), tally)
    reference.extend(reference_seconds() for _ in range(5))
    self_s: list[float] = []
    overhead: list[float] = []

    def cli_round(traced: bool, jobs) -> float:
        if not traced:
            return sum(_run_round(main, jobs, off, tally)[0])
        with tracer.span("round", mode="traced"):
            return sum(_run_round(main, jobs, tracer, tally)[0])

    def step(jobs):
        # alternate which CLI pass goes first, so order effects cancel out
        first = len(self_s) % 2 == 0
        a = cli_round(first, jobs)
        with tracer.span("round", mode="replay"):
            start = time.perf_counter()
            for job in jobs:
                with tracer.span("replay", kind=job.kind):
                    job.replay(tracer)
            replay = time.perf_counter() - start
        b = cli_round(not first, jobs)
        traced, plain = (a, b) if first else (b, a)
        self_s.append(plain - replay)
        overhead.append(100.0 * (traced / plain - 1.0))
        reference.append(reference_seconds())

    _closed_loop(rounds(name, seed, expected), deadline, step)
    metrics["cli.self_s"] = median(self_s)
    metrics["trace.overhead_pct"] = median(overhead)
    path = os.path.join(HERE, "out", f"trace-{name}-seed{seed}.json")
    tracer.dump(path, {"workload": name, "seed": seed, "env": env, "counts": counts,
                       "measured": metrics, "reference_s": reference})
    scale = median(reference) / REFERENCE_NOMINAL_S
    print(f"samples: {PROBE_PASSES} probe passes, {len(self_s)} workload rounds; spans in {path}")
    print(f"speed: reference computation median {1e3 * median(reference):.3f} ms"
          f" (nominal {1e3 * REFERENCE_NOMINAL_S:g} ms); raw values in {path}")
    return {k: at_nominal_speed(v, UNITS[k], scale) for k, v in metrics.items()}


def run_all(args) -> int:
    """Run every workload in its own fresh process and print one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bwcycles benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True, help="seeds the query-mix draw and probe positions")
    ap.add_argument("--seconds", type=float, required=True, help="how long to run the workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    require_source()
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(EXPECTED):
        print(f"error: {EXPECTED} is missing", file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        expected = json.load(fh)

    env = environment()
    print("env: " + json.dumps(env))
    tally = Tally()
    if args.trace:
        metrics = measure_traced(args.workload, args.seed, args.seconds, expected, tally, env)
    else:
        metrics = measure(args.workload, args.seed, args.seconds, expected, tally)
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {UNITS[name]}")
    print(f"{args.workload} failed_ratio {tally.failed / max(tally.attempted, 1):.6g}"
          f" ({tally.failed} of {tally.attempted})")
    for error in tally.errors:
        print(f"failure: {error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
