"""The benchmark's workloads: what each one sends to ``bwcycles.cli.main``.

A workload is an endless sequence of rounds; a round is a fixed list of jobs
and the unit over which rates are taken. Every job carries a check of its
output and a replay: the same work done through library calls alone, which
the traced run times to split the CLI's own cost from the engines'.

Cells are sized so a 25 s run holds at least a few dozen jobs, which keeps
medians steady on a noisy 2-CPU machine and gives the tail percentile ten
samples beyond it.
"""

from __future__ import annotations

import json
import random
from math import comb
from typing import Callable, Iterator

from harness import Job, Sink, Tracer
from bwcycles.combmaps import decode_window, ucycle_multisets_diff, ucycle_multisets_freq, ucycle_subsets
from bwcycles.grandmama import generate_by_successor, generate_concat, iter_concat_prefixes
from bwcycles.msr import generate_msr
from bwcycles.oracle import enumerate_universe, verify_universal_cycle
from bwcycles.words import ParamSet

CONCAT_CELL = ParamSet(4, 10, 15)
MSR_CELL = ParamSet(10, 11, 9)
VERIFY_CELL = ParamSet(4, 9, 13)


def _cell_argv(p: ParamSet) -> list[str]:
    return ["--t", str(p.t), "--n", str(p.n), "--w", str(p.w)]


def _length_check(nbytes: int) -> Callable[[int, Sink], str | None]:
    def check(code, out):
        return None if out.nbytes == nbytes else f"{out.nbytes} bytes, expected {nbytes}"
    return check


def _with_digest(check, digest: str):
    """Wrap ``check`` so the output must also match a recorded digest (or its prefix)."""
    def checked(code, out):
        if not out.hexdigest().startswith(digest):
            return "output digest differs from the recorded one"
        return check(code, out)
    return checked


def _drain_concat(p: ParamSet, tracer: Tracer) -> int:
    with tracer.span("grandmama.concat"):
        return sum(len(c) for c in iter_concat_prefixes(p))


def _verify_words(p: ParamSet, tracer: Tracer, engine: str = "grandmama") -> bool:
    with tracer.span("grandmama.materialize" if engine == "grandmama" else "msr.h2"):
        cycle = generate_concat(p) if engine == "grandmama" else generate_msr(p)
    with tracer.span("oracle.enumerate"):
        universe = enumerate_universe("bounded_words", t=p.t, n=p.n, w=p.w_eff)
    with tracer.span("oracle.verify"):
        return verify_universal_cycle(cycle, universe).ok


def _verify_check(size: int) -> Callable[[int, Sink], str | None]:
    def check(code, out):
        report = json.loads(out.text())
        if report.get("ok") is not True:
            return "verify reported ok != true"
        if report["cycle_len"] != size or report["expected_count"] != size:
            return f"verify covered {report['cycle_len']}/{report['expected_count']}, expected {size}"
        return None
    return check


def _msr_alone(p: ParamSet, tracer: Tracer) -> int:
    with tracer.span("msr.h2"):
        return len(generate_msr(p))


def stream_rounds(name: str, digests: dict) -> Iterator[list[Job]]:
    """Rounds of one job each for the three whole-cycle workloads.

    ``digests`` maps a job's argv, joined by spaces, to the SHA-256 its output
    must have; it is empty only while ``record.py`` records them.
    """
    if name == "concat-stream":
        p = CONCAT_CELL
        job = Job(["generate", *_cell_argv(p), "--format", "compact"], p.universe_size,
                  _length_check(p.universe_size + 1), kind="generate",
                  replay=lambda tr: _drain_concat(p, tr))
    elif name == "msr-stream":
        p = MSR_CELL
        job = Job(["generate", "--engine", "msr", *_cell_argv(p), "--format", "compact"],
                  p.universe_size, _length_check(p.universe_size + 1), kind="generate",
                  replay=lambda tr: _msr_alone(p, tr))
    elif name == "verify-cycle":
        p = VERIFY_CELL
        job = Job(["verify", *_cell_argv(p)], p.universe_size, _verify_check(p.universe_size),
                  kind="verify", keep=True, replay=lambda tr: _verify_words(p, tr))
    else:
        raise KeyError(name)
    if digests:
        job.check = _with_digest(job.check, digests[" ".join(job.argv)]["sha256"])
    while True:
        yield [job]


# --- query-mix ------------------------------------------------------------


def _random_window(rng: random.Random, t: int, n: int, w: int) -> list[int]:
    """A random word of length n over {0..t-1} with weight <= w.

    It draws a weight, then adds it one unit at a time at random positions.
    Every such word lies on the cycle, so it is a valid ``--seed-window``.
    """
    word = [0] * n
    for _ in range(rng.randint(0, min(w, n * (t - 1)))):
        pos = rng.choice([i for i in range(n) if word[i] < t - 1])
        word[pos] += 1
    return word


def _decode_words(p: ParamSet, engine: str, rng) -> Job:
    pos = rng.randrange(p.universe_size)
    argv = ["decode", "--engine", engine, *_cell_argv(p), "--position", str(pos)]

    def check(code, out):
        obj = json.loads(out.text())
        syms = obj["symbols"]
        if obj["kind"] != "word" or obj["t"] != p.t or len(syms) != p.n:
            return f"unexpected decode payload {obj}"
        if any(not 0 <= s < p.t for s in syms) or sum(syms) > p.w_eff:
            return f"decoded window {syms} is outside the universe"
        return None

    def replay(tr):
        with tr.span("grandmama.materialize" if engine == "grandmama" else "msr.h2"):
            cycle = generate_concat(p) if engine == "grandmama" else generate_msr(p)
        with tr.span("combmaps.decode"):
            return decode_window(cycle, pos)

    return Job(argv, p.n, check, kind="decode", keep=True, replay=replay)


_MAKERS = {"subsets": ucycle_subsets, "multisets-freq": ucycle_multisets_freq,
           "multisets-diff": ucycle_multisets_diff}


def _decode_comb(flag: str, n: int, k: int, rng) -> Job:
    size = comb(n, k) if flag == "subsets" else comb(n + k - 1, k)
    pos = rng.randrange(size)
    argv = ["decode", f"--{flag}", str(n), str(k), "--position", str(pos)]
    strict = flag == "subsets"

    def check(code, out):
        obj = json.loads(out.text())
        el = obj["elements"]
        if obj["kind"] != ("subset" if strict else "multiset") or (obj["n"], obj["k"]) != (n, k):
            return f"unexpected decode payload {obj}"
        if len(el) != k or not all(1 <= e <= n for e in el):
            return f"decoded elements {el} outside 1..{n}"
        if any(a > b or (strict and a == b) for a, b in zip(el, el[1:])):
            return f"decoded elements {el} out of order"
        return None

    def replay(tr):
        with tr.span("combmaps.ucycle"):
            cycle = _MAKERS[flag](n, k)
        with tr.span("combmaps.decode"):
            return decode_window(cycle, pos)

    return Job(argv, k, check, kind="decode", keep=True, replay=replay)


def _seeded_generate(p: ParamSet, engine: str, limit: int, shift: int, cell: list[str], rng) -> Job:
    seed = _random_window(rng, p.t, p.n, p.w_eff)
    shown = "".join(str(s + shift) for s in seed)
    argv = ["generate", "--engine", engine, *cell, "--seed-window", shown,
            "--limit", str(limit), "--format", "compact"]

    def check(code, out):
        text = out.text()
        if len(text) != limit + 1 or text[-1] != "\n" or not text.startswith(shown):
            return f"expected {limit} symbols starting with {shown}"
        syms = [ord(c) - 48 - shift for c in text[:-1]]
        if any(not 0 <= s < p.t for s in syms):
            return "symbol outside the alphabet"
        weight = sum(syms[:p.n])
        for i in range(p.n, limit + 1):
            if weight > p.w_eff:
                return f"window at {i - p.n} is heavier than {p.w_eff}"
            if i < limit:
                weight += syms[i] - syms[i - p.n]
        return None

    def replay(tr):
        with tr.span("grandmama.h1" if engine == "grandmama" else "msr.h2"):
            gen = generate_by_successor if engine == "grandmama" else generate_msr
            return gen(p, start=seed, steps=limit - p.n)

    return Job(argv, limit, check, kind="generate", keep=True, replay=replay)


def _verify_small(argv: list[str], size: int, replay) -> Job:
    return Job(["verify", *argv], size, _verify_check(size), kind="verify", keep=True,
               replay=replay)


def _verify_comb(flag: str, kind: str, size: int, n: int, k: int) -> Job:
    def replay(tr):
        with tr.span("combmaps.ucycle"):
            cycle = _MAKERS[flag](n, k)
        with tr.span("oracle.enumerate"):
            universe = enumerate_universe(kind, n=n, k=k)
        with tr.span("oracle.verify"):
            return verify_universal_cycle(cycle, universe).ok
    return _verify_small([f"--{flag}", str(n), str(k)], size, replay)


def _query_round(rng: random.Random) -> list[Job]:
    """One round of the mix: every job class, in a seeded order.

    The classes are fixed and only positions and seed windows are drawn, so
    every seed exercises the same cost mix and its quantiles stay comparable.
    Six classes are faster and six slower than the subsets generate, which
    appears three times, so the median sits in the middle of one class. The
    large decode appears twice so the tail sits inside one class too.
    """
    big, small = ParamSet(4, 10, 15), ParamSet(3, 8, 6)
    msr_small, msr_mid, msr_verify = ParamSet(8, 9, 7), ParamSet(10, 11, 9), ParamSet(7, 6, 6)
    subsets = ParamSet(8, 7, 7)  # the engine cell behind --subsets 14 7
    jobs = [
        _decode_words(big, "grandmama", rng),
        _decode_words(big, "grandmama", rng),
        _decode_words(msr_small, "msr", rng),
        _decode_comb("subsets", 16, 8, rng),
        _decode_comb("multisets-freq", 9, 6, rng),
        _decode_comb("multisets-diff", 8, 5, rng),
        _seeded_generate(big, "grandmama", 20000, 0, _cell_argv(big), rng),
        _seeded_generate(msr_mid, "msr", 20000, 0, _cell_argv(msr_mid), rng),
        *(_seeded_generate(subsets, "grandmama", comb(14, 7), 1, ["--subsets", "14", "7"], rng)
          for _ in range(3)),
        _verify_small(_cell_argv(small), small.universe_size,
                      lambda tr: _verify_words(small, tr)),
        _verify_small(["--engine", "msr", *_cell_argv(msr_verify)], msr_verify.universe_size,
                      lambda tr: _verify_words(msr_verify, tr, "msr")),
        _verify_comb("subsets", "subset_diff", comb(12, 6), 12, 6),
        _verify_comb("multisets-freq", "multiset_freq", comb(11, 5), 7, 5),
    ]
    rng.shuffle(jobs)
    return jobs


def query_rounds(seed: int, digests: dict) -> Iterator[list[Job]]:
    """Rounds of the mix for ``seed``; jobs with a recorded digest must match it."""
    rng = random.Random(seed)
    recorded = digests.get(str(seed), [])
    index = 0
    while True:
        jobs = _query_round(rng)
        for job in jobs:
            if index < len(recorded):
                job.check = _with_digest(job.check, recorded[index])
            index += 1
        yield jobs


def rounds(name: str, seed: int, expected: dict) -> Iterator[list[Job]]:
    if name == "query-mix":
        return query_rounds(seed, expected.get("query_mix", {}))
    return stream_rounds(name, expected.get("streams", {}))
