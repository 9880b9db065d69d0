"""End-to-end acceptance checks.

One test per criterion, each printing a single "ACCEPTANCE <k> <name>: PASS/FAIL"
line directly to the terminal (bypassing capture). The engine sweep over the
full parameter grid is computed once in a session fixture and shared, since
criteria 2, 3, 6, 7 and 8 all read different facets of the same runs. Those
five are marked slow, so ``-m "not slow"`` skips the fixture.
"""

import itertools
import time
from collections import Counter
from math import comb

import pytest

from bwcycles.combmaps import (
    decode_window,
    fixed_weight_expand,
    ucycle_multisets_diff,
    ucycle_multisets_freq,
    ucycle_subsets,
)
from bwcycles.cyclejoin import (
    FeedbackKind,
    build_tree,
    check_chain_property,
    check_periodic_leaves,
    generic_successor,
)
from bwcycles.grandmama import (GenStats, generate_by_successor, generate_concat,
                                iter_concat_prefixes)
from bwcycles.msr import check_conjecture, generate_msr, generate_reverse_colex, successor_h2
from bwcycles.oracle import verify_stream, verify_universal_cycle
from bwcycles.words import ParamSet

# every (t, n) pair with t^n <= 10^6, all weight bounds up to the saturation point
GRID = [
    (t, n, w)
    for t in range(2, 7)
    for n in range(1, 7)
    if t**n <= 10**6
    for w in range(n * (t - 1) + 1)
]


def report(capsys, num, name, ok, extra=""):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{extra}")


@pytest.fixture(scope="session")
def word_lists():
    """(t, n) -> [(word, weight)] for the whole grid, enumerated once."""
    out = {}
    for t in range(2, 7):
        for n in range(1, 7):
            if t**n <= 10**6:
                out[t, n] = [(wd, sum(wd)) for wd in itertools.product(range(t), repeat=n)]
    return out


@pytest.fixture(scope="session")
def sweep(word_lists):
    """Run every engine over every grid cell once; later tests read the facets."""
    cells = {}
    for t, n, w in GRID:
        params = ParamSet(t, n, w)
        stats = GenStats()
        concat = generate_concat(params, stats=stats)
        successor = generate_by_successor(params)

        tree = build_tree(FeedbackKind.PCR, params)
        window = (0,) * n
        generic = []
        for _ in range(params.universe_size):
            generic.append(window[0])
            window = window[1:] + (generic_successor(tree, window),)

        universe = [wd for wd, wt in word_lists[t, n] if wt <= w]
        rec = {
            "equal": concat.symbols == successor.symbols == tuple(generic),
            "concat_ok": verify_universal_cycle(concat, universe).ok,
            "length": len(concat),
            "comparisons": stats.comparisons,
            "chain": check_chain_property(tree),
            "leaves": check_periodic_leaves(tree),
        }

        if w < t:
            msr = generate_msr(params)
            rev = generate_reverse_colex(params)
            rec["msr_ok"] = verify_universal_cycle(msr, universe).ok
            rec["rev_ok"] = verify_universal_cycle(rev, universe).ok
            rec["msr_chain"] = check_chain_property(build_tree(FeedbackKind.MSR, params))
            worst = 0
            for wd in universe:
                per_call = GenStats()
                successor_h2(params, wd, stats=per_call)
                worst = max(worst, per_call.necklace_tests)
            rec["msr_max_tests"] = worst

        cells[t, n, w] = rec
    return cells


def test_c1_golden_sequences(capsys):
    start = time.perf_counter()
    produced = [
        str(generate_concat(ParamSet(5, 3, 4))),
        str(generate_msr(ParamSet(5, 3, 4))),
        str(generate_concat(ParamSet(4, 3, 3))),
        str(generate_msr(ParamSet(4, 3, 3))),
        str(ucycle_subsets(6, 3, "grandmama")),
        str(ucycle_subsets(6, 3, "msr")),
        str(generate_concat(ParamSet(4, 4, 3))),
        str(generate_msr(ParamSet(4, 4, 3))),
        str(ucycle_subsets(5, 3, "grandmama")),
    ]
    expected = [
        "00010111021031002012112022003013004",
        "00040013010300220112020031012102111",
        "00010111021002012003",
        "00030012010200210111",
        "11121222132113123114",
        "11141123121311321222",
        "00001010011011100210002010200120003",
        "00003000120010200021001110101100201",
        "1112122113",
    ]
    elapsed = time.perf_counter() - start
    ok = produced == expected and elapsed < 1.0
    report(capsys, 1, "golden-sequences", ok, f" ({elapsed * 1000:.0f} ms)")
    assert produced == expected
    assert elapsed < 1.0


@pytest.mark.slow
def test_c2_engine_equivalence(sweep, capsys):
    bad = [cell for cell, rec in sweep.items() if not rec["equal"]]
    report(capsys, 2, "engine-equivalence", not bad, f" ({len(sweep)} cells)")
    assert not bad, f"engines disagree at {bad[:5]}"


@pytest.mark.slow
def test_c3_universality_sweep(sweep, capsys):
    bad = [
        cell
        for cell, rec in sweep.items()
        if not (rec["concat_ok"] and rec.get("msr_ok", True) and rec.get("rev_ok", True))
    ]
    msr_cells = sum("msr_ok" in rec for rec in sweep.values())
    report(capsys, 3, "universality-sweep", not bad,
           f" ({len(sweep)} cells, {msr_cells} with the register engines)")
    assert not bad, f"coverage failures at {bad[:5]}"


def test_c4_cardinalities(capsys):
    bad = []
    for n in range(1, 11):
        for k in range(1, n + 1):
            for engine in ("grandmama", "msr"):
                cyc = ucycle_subsets(n, k, engine)
                objs = [decode_window(cyc, i).elements for i in range(len(cyc))]
                if not (
                    len(cyc) == comb(n, k)
                    and len(set(objs)) == len(objs)
                    and set(objs) == set(itertools.combinations(range(1, n + 1), k))
                ):
                    bad.append(("subsets", n, k, engine))
    for n in range(2, 8):
        for k in range(2, 8):
            expected = set(itertools.combinations_with_replacement(range(1, n + 1), k))
            for maker, label in (
                (ucycle_multisets_freq, "multisets-freq"),
                (ucycle_multisets_diff, "multisets-diff"),
            ):
                for engine in ("grandmama", "msr"):
                    cyc = maker(n, k, engine)
                    objs = [decode_window(cyc, i).elements for i in range(len(cyc))]
                    if not (
                        len(cyc) == comb(n + k - 1, k)
                        and len(set(objs)) == len(objs)
                        and set(objs) == expected
                    ):
                        bad.append((label, n, k, engine))
    report(capsys, 4, "cardinalities", not bad)
    assert not bad, f"object coverage failures at {bad[:5]}"


def test_c5_fixed_weight_expansion(capsys):
    bad = []
    for t in range(2, 7):
        for n in range(1, 7):
            if t**n > 10**6:
                continue
            buckets = {}
            for wd in itertools.product(range(t), repeat=n + 1):
                s = sum(wd)
                if s <= t:
                    buckets.setdefault(s, []).append(wd)
            for w in range(min(t, n * (t - 1)) + 1):
                expected = Counter(buckets.get(w, []))
                if Counter(fixed_weight_expand(generate_concat(ParamSet(t, n, w)))) != expected:
                    bad.append(("concat", t, n, w))
                if w < t:
                    if Counter(fixed_weight_expand(generate_msr(ParamSet(t, n, w)))) != expected:
                        bad.append(("msr", t, n, w))
    report(capsys, 5, "fixed-weight-expansion", not bad)
    assert not bad, f"expansion mismatches at {bad[:5]}"


@pytest.mark.slow
def test_c6_one_necklace_test_per_call(sweep, capsys):
    worst = max(rec["msr_max_tests"] for rec in sweep.values() if "msr_max_tests" in rec)
    report(capsys, 6, "one-necklace-test-bound", worst <= 1, f" (max {worst} per call)")
    assert worst <= 1


@pytest.mark.slow
def test_c7_amortized_cost(sweep, capsys):
    over = [
        cell for cell, rec in sweep.items() if 2 * rec["comparisons"] > 16 * rec["length"]
    ]

    params = ParamSet(4, 12, 19)
    produced = 0

    start = time.perf_counter()
    for chunk in iter_concat_prefixes(params):
        produced += len(chunk)
    elapsed = time.perf_counter() - start

    # the oracle checks the whole cycle, streamed from a second engine run
    start = time.perf_counter()
    checked = verify_stream(iter_concat_prefixes(params), "bounded_words", t=params.t, n=params.n,
                            w=params.w_eff, max_universe=params.universe_size)
    verify_s = time.perf_counter() - start
    verified = checked.ok and checked.window_count == params.universe_size

    big_enough = produced == params.universe_size and produced >= 10**7
    ok = not over and big_enough and elapsed < 60.0 and verified
    soft = "" if elapsed < 10.0 else ", above the 10 s soft bound"
    report(capsys, 7, "amortized-cost", ok,
           f" ({produced} symbols in {elapsed:.2f} s{soft}; verified in {verify_s:.2f} s)")
    assert not over, f"comparison budget exceeded at {over[:5]}"
    assert big_enough
    assert elapsed < 60.0
    assert verified, checked.to_dict()


@pytest.mark.slow
def test_c8_tree_chain_and_leaves(sweep, capsys):
    bad = [
        cell
        for cell, rec in sweep.items()
        if not (rec["chain"] and rec["leaves"] and rec.get("msr_chain", True))
    ]
    report(capsys, 8, "tree-chain-and-leaves", not bad)
    assert not bad, f"tree property failures at {bad[:5]}"


def test_c9_conjecture_sweep(capsys):
    reports = [
        check_conjecture(ParamSet(t, n, w))
        for t in range(2, 7)
        for n in range(1, 7)
        for w in range(t)
    ]
    divergent = [r for r in reports if not r.holds]
    # divergence is an observation to surface, not a failure
    report(capsys, 9, "conjecture-sweep", True,
           f" ({len(reports)} cells, {len(divergent)} divergent)")
    if divergent:
        with capsys.disabled():
            for r in divergent:
                print(
                    f"  divergence: t={r.t} n={r.n} w={r.w}"
                    f" lengths={r.length_msr}/{r.length_reverse_colex}"
                    f" first={r.first_divergence}"
                )
    assert len(reports) == 120
