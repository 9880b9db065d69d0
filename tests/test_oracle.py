import json
import math
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bwcycles import oracle
from bwcycles.grandmama import UCycle, generate_concat
from bwcycles.msr import generate_msr
from bwcycles.oracle import (VerifyReport, enumerate_universe, verify_listing, verify_stream,
                             verify_universal_cycle)
from bwcycles.words import ParamSet


def test_verify_good_cycle():
    universe = enumerate_universe("bounded_words", t=2, n=2, w=2)
    report = verify_universal_cycle([0, 0, 1, 1], universe, window_len=2)
    assert report.ok
    assert report.expected_count == 4
    assert report.window_count == 4
    assert report.missing == [] and report.duplicated == [] and report.unexpected == []


def test_verify_bad_cycle_0010():
    universe = enumerate_universe("bounded_words", t=2, n=2, w=2)
    report = verify_universal_cycle([0, 0, 1, 0], universe, window_len=2)
    assert not report.ok
    assert report.missing == [(1, 1)]
    assert report.duplicated == [((0, 0), 2)]
    assert report.unexpected == []
    # report serializes cleanly
    blob = json.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert parsed["ok"] is False
    assert parsed["missing"] == [[1, 1]]
    assert parsed["duplicated"] == [{"word": [0, 0], "count": 2}]


def test_verify_wrapping_degenerate_cycle():
    # single-word universe, cycle shorter than the window
    report = verify_universal_cycle([0], [(0, 0, 0)], window_len=3)
    assert report.ok
    assert report.cycle_len == 1 and report.expected_count == 1


def test_verify_unexpected_window():
    report = verify_universal_cycle([0, 1], [(0, 0)], window_len=2)
    assert not report.ok
    assert (0, 1) in report.unexpected and (1, 0) in report.unexpected


def test_verify_truncation():
    universe = enumerate_universe("bounded_words", t=2, n=6, w=6)
    report = verify_universal_cycle([0] * 64, universe, window_len=6)
    assert not report.ok and report.truncated
    assert len(report.missing) == 20
    full = verify_universal_cycle([0] * 64, universe, window_len=6, full_details=True)
    assert not full.truncated
    assert len(full.missing) == 63  # everything but 000000


def test_verify_cap():
    with pytest.raises(ValueError):
        verify_universal_cycle([0], [(i,) for i in range(11)], window_len=1, max_universe=10)


def test_iterable_universe_read_only_up_to_the_cap():
    # product(range(10), repeat=6) is a million words; refusing it must not read them all
    read = []

    def counted():
        for word in product(range(10), repeat=6):
            read.append(word)
            yield word

    refusal = "^universe has more than 10 elements, above the cap 10$"
    for verify in (lambda: verify_universal_cycle([0] * 6, counted(), window_len=6,
                                                  max_universe=10),
                   lambda: verify_listing([(0,) * 6], counted(), max_universe=10)):
        read.clear()
        with pytest.raises(ValueError, match=refusal):
            verify()
        assert len(read) <= 11


def test_verify_window_len_required():
    with pytest.raises(ValueError):
        verify_universal_cycle([0, 1], [(0,), (1,)])


def test_universe_counts_match_closed_forms():
    assert len(enumerate_universe("bounded_words", t=5, n=3, w=4)) == 35
    assert len(enumerate_universe("fixed_weight_words", t=3, length=3, weight=3)) == 7
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert len(enumerate_universe("subset_diff", n=n, k=k)) == math.comb(n, k)
    for n in range(2, 7):
        for k in range(2, 7):
            expected = math.comb(n + k - 1, k)
            assert len(enumerate_universe("multiset_freq", n=n, k=k)) == expected
            assert len(enumerate_universe("multiset_diff", n=n, k=k)) == expected


def test_universe_alphabets():
    for word in enumerate_universe("subset_diff", n=6, k=3):
        assert len(word) == 3 and all(1 <= d <= 4 for d in word)
    for word in enumerate_universe("multiset_freq", n=4, k=4):
        assert len(word) == 3 and all(0 <= f <= 4 for f in word) and sum(word) <= 4
    for word in enumerate_universe("multiset_diff", n=4, k=4):
        assert len(word) == 4 and all(0 <= d <= 3 for d in word) and sum(word) <= 3


def test_universe_entries_distinct():
    for kind, kwargs in [
        ("subset_diff", dict(n=7, k=3)),
        ("multiset_freq", dict(n=4, k=5)),
        ("multiset_diff", dict(n=5, k=4)),
    ]:
        words = enumerate_universe(kind, **kwargs)
        assert len(set(words)) == len(words)


def test_universe_unknown_kind():
    with pytest.raises(ValueError):
        enumerate_universe("nonsense", t=1)
    with pytest.raises(ValueError, match="unknown universe kind"):
        verify_stream(iter([[0]]), "nonsense", t=1)


def test_difference_universes_need_k():
    for kind in ("subset_diff", "multiset_diff"):
        with pytest.raises(ValueError, match="need k >= 1"):
            enumerate_universe(kind, n=3, k=0)
        with pytest.raises(ValueError, match="need k >= 1"):
            verify_stream(iter([[1]]), kind, n=3, k=0)


def _tuple_universe_grid():
    for n in range(8):
        for k in range(1, 5):
            yield "subset_diff", dict(n=n, k=k)
            yield "multiset_diff", dict(n=n, k=k)
    for n in range(1, 7):
        for k in range(5):
            yield "multiset_freq", dict(n=n, k=k)
    for t in range(1, 5):
        for length in range(5):
            for weight in range(-1, length * (t - 1) + 2):
                yield "fixed_weight_words", dict(t=t, length=length, weight=weight)


def _reference_universe(kind, **params):
    """The universe builders the kind table replaced: a weight-pruned list of
    tuples for the weight kinds, and a Counter or a gap tuple per object."""
    def weight_bounded(t, n, w):
        heads = [[(a,) for a in range(k)] for k in range(t + 1)]
        level = [()] if w >= 0 else []
        for _ in range(n):
            level = [p + a for p in level for a in heads[min(t, w - sum(p) + 1)]]
        return level

    if kind == "bounded_words":
        return weight_bounded(params["t"], params["n"], params["w"])
    if kind == "fixed_weight_words":
        t, length, target = params["t"], params["length"], params["weight"]
        return [word for word in weight_bounded(t, length, target) if sum(word) == target]
    if kind == "multiset_freq":
        n, k = params["n"], params["k"]
        out = []
        for multiset in combinations_with_replacement(range(1, n + 1), k):
            counts = Counter(multiset)
            out.append(tuple(counts.get(v, 0) for v in range(1, n)))
        return out
    if kind in ("subset_diff", "multiset_diff"):
        n, k = params["n"], params["k"]
        if kind == "subset_diff":
            combos, first = combinations(range(1, n + 1), k), 0
        else:
            combos, first = combinations_with_replacement(range(1, n + 1), k), 1
        return [(c[0] - first,) + tuple(b - a for a, b in zip(c, c[1:])) for c in combos]
    raise ValueError(f"unknown universe kind {kind!r}")


def test_enumeration_matches_reference():
    # the same tuples in the same order, kind by kind
    for kind, params in _tuple_universe_grid():
        assert enumerate_universe(kind, **params) == _reference_universe(kind, **params), (
            kind, params)
    for t in range(1, 6):
        for n in range(7):
            for w in range(-1, n * (t - 1) + 2):
                assert (enumerate_universe("bounded_words", t=t, n=n, w=w)
                        == _reference_universe("bounded_words", t=t, n=n, w=w)), (t, n, w)


def test_closed_form_sizes_match_the_enumeration():
    # the cap is checked against a closed-form size; it must be the enumerated size
    for kind, params in _tuple_universe_grid():
        size = len(enumerate_universe(kind, **params))
        with pytest.raises(ValueError, match=f"universe has {size} elements, above the cap"):
            verify_stream(iter([]), kind, max_universe=size - 1, **params)


def test_cap_checked_before_the_universe_is_enumerated(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("enumerated past the cap")

    for kind, (length, size, _, coded) in list(oracle._KINDS.items()):
        monkeypatch.setitem(oracle._KINDS, kind, (length, size, must_not_run, coded))
    with pytest.raises(ValueError) as refused:
        verify_stream(iter([]), "subset_diff", n=60, k=30, max_universe=10)
    assert str(refused.value) == "universe has 118264581564861424 elements, above the cap 10"
    for kind, params, size in [("subset_diff", dict(n=26, k=13), math.comb(26, 13)),
                               ("multiset_freq", dict(n=12, k=9), math.comb(20, 9)),
                               ("multiset_diff", dict(n=12, k=9), math.comb(20, 9)),
                               ("fixed_weight_words", dict(t=2, length=40, weight=20),
                                math.comb(40, 20))]:
        with pytest.raises(ValueError, match=f"universe has {size} elements"):
            verify_stream(iter([[1]]), kind, max_universe=10, **params)


@given(st.integers(2, 3), st.integers(1, 4), st.integers(0, 6), st.randoms())
def test_shuffled_cycle_fails_unless_rotation(t, n, w, rng):
    # every rotation of a valid cycle still verifies; changing any one symbol
    # does not, since it shifts the weight sum of the windows it touches
    universe = enumerate_universe("bounded_words", t=t, n=n, w=w)
    if len(universe) > 40:
        return
    base = list(generate_concat(ParamSet(t, n, w)).symbols)
    for k in range(len(base)):
        assert verify_universal_cycle(base[k:] + base[:k], universe, window_len=n).ok, k
    k = rng.randrange(len(base))
    rotated = base[k:] + base[:k]
    for i, old in enumerate(rotated):
        for new in range(t):
            if new != old:
                corrupted = rotated[:i] + [new] + rotated[i + 1 :]
                assert not verify_universal_cycle(corrupted, universe, window_len=n).ok, (i, new)


# --- the rewritten oracle against the tuple-per-index implementation it replaced ---


def _reference_report(seen, expected, window_len, total, full_details):
    missing = sorted(expected - seen.keys())
    duplicated = sorted((w, c) for w, c in seen.items() if c > 1)
    unexpected = sorted(seen.keys() - expected)
    ok = not missing and not duplicated and not unexpected and total == len(expected)
    truncated = False
    if not full_details:
        limit = 20
        truncated = len(missing) > limit or len(duplicated) > limit or len(unexpected) > limit
        missing, duplicated, unexpected = missing[:limit], duplicated[:limit], unexpected[:limit]
    return VerifyReport(ok, window_len, total, len(expected), total, missing, duplicated,
                        unexpected, truncated)


def _refuse_above_cap(expected, max_universe, size_known):
    """The cap error. A universe known by name or by its coded set reports its
    size; one read from an iterable is refused after max_universe + 1 words."""
    if len(expected) > max_universe:
        size = len(expected) if size_known else f"more than {max_universe}"
        raise ValueError(f"universe has {size} elements, above the cap {max_universe}")


def _reference_verify(symbols, universe, n, max_universe, full_details, size_known=True):
    expected = set(tuple(w) for w in universe)
    _refuse_above_cap(expected, max_universe, size_known)
    length = len(symbols)
    if length == 0:
        raise ValueError("cannot verify an empty cycle")
    seen = Counter(tuple(symbols[(i + d) % length] for d in range(n)) for i in range(length))
    return _reference_report(seen, expected, n, length, full_details)


def _reference_listing(words, universe, max_universe, full_details):
    expected = set(tuple(w) for w in universe)
    _refuse_above_cap(expected, max_universe, False)
    seen = Counter(tuple(w) for w in words)
    window_len = len(next(iter(seen), next(iter(expected), ())))
    return _reference_report(seen, expected, window_len, sum(seen.values()), full_details)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).to_dict()
    except ValueError as exc:
        return ("ValueError", str(exc))


CAPS = st.sampled_from([0, 1, 30, 10**6])  # max_universe: refused, tiny, small, default


def _product_universe(t, n, w):
    return [word for word in product(range(t), repeat=n) if sum(word) <= w]


@st.composite
def _cycle_case(draw):
    """A cell, a universe that may be the wrong one, and a cycle to check against it.

    Cycles are random words (symbols may lie outside the alphabet, and may be
    shorter than the window) or engine cycles with a few symbols overwritten.
    """
    t, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    w = draw(st.integers(0, n * (t - 1)))
    universe = _product_universe(t, n, w)
    if draw(st.booleans()):
        universe = draw(st.lists(st.sampled_from(universe), max_size=len(universe)))
    if draw(st.booleans()):
        symbols = draw(st.lists(st.integers(0, t), min_size=1, max_size=3 * n + 40))
    else:
        symbols = list(generate_concat(ParamSet(t, n, w)).symbols)
        for _ in range(draw(st.integers(0, 3))):
            symbols[draw(st.integers(0, len(symbols) - 1))] = draw(st.integers(0, t))
    return symbols, universe, n


@settings(max_examples=300, deadline=None)
@given(_cycle_case(), st.booleans(), CAPS)
def test_verify_matches_reference(case, full_details, max_universe):
    symbols, universe, n = case
    new = _outcome(verify_universal_cycle, symbols, universe, window_len=n,
                   max_universe=max_universe, full_details=full_details)
    assert new == _outcome(_reference_verify, symbols, universe, n, max_universe, full_details,
                           size_known=False)
    cycle = UCycle(tuple(symbols), ParamSet(1, n, 0), "test")  # the window length comes from n
    assert _outcome(verify_universal_cycle, cycle, universe, max_universe=max_universe,
                    full_details=full_details) == new


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.data(), st.booleans(), CAPS)
def test_verify_listing_matches_reference(t, n, data, full_details, max_universe):
    word = st.tuples(*[st.integers(0, t) for _ in range(n)])
    words = data.draw(st.lists(word, max_size=50))
    universe = data.draw(st.lists(word, max_size=50))
    new = _outcome(verify_listing, words, universe, max_universe=max_universe,
                   full_details=full_details)
    assert new == _outcome(_reference_listing, words, universe, max_universe, full_details)


def test_verify_short_cycles_wrap_like_reference():
    for symbols, n in [([0], 5), ([0, 1], 5), ([1, 0, 2], 7), ([2], 1), ([0, 1], 0)]:
        universe = _product_universe(3, n, 2 * n)
        for full in (False, True):
            assert (verify_universal_cycle(symbols, universe, window_len=n, full_details=full)
                    .to_dict() == _reference_verify(symbols, universe, n, 10**6, full).to_dict())


def test_weight_pruned_enumeration_matches_product_scan():
    for t in range(1, 6):
        for n in range(0, 7):
            words = list(product(range(t), repeat=n))
            for w in range(-1, n * (t - 1) + 2):
                bounded = enumerate_universe("bounded_words", t=t, n=n, w=w)
                assert bounded == [x for x in words if sum(x) <= w], (t, n, w)
                assert enumerate_universe("fixed_weight_words", t=t, length=n, weight=w) == [
                    x for x in words if sum(x) == w], (t, n, w)
                # the recursive mark array, the code list and the size agree with the tuples
                codes = {sum(s * t ** (n - 1 - i) for i, s in enumerate(x)) for x in bounded}
                marks = oracle._bounded_marks(t, n, w)
                assert len(marks) == t ** n and set(marks) <= {0, 1}, (t, n, w)
                assert {c for c, m in enumerate(marks) if m} == codes, (t, n, w)
                listed = oracle._bounded_codes(t, n, w)
                assert len(listed) == len(bounded) and set(listed) == codes, (t, n, w)
                assert oracle._weight_fold(t, n, w, 1, lambda k: 0, sum) == len(bounded)


@pytest.mark.slow
def test_engine_cycles_verify_on_a_wide_grid():
    for t in range(1, 9):
        for n in range(1, 6):
            for w in range(0, n * (t - 1) + 1):
                p = ParamSet(t, n, w)
                universe = enumerate_universe("bounded_words", t=t, n=n, w=w)
                cycles = [generate_concat(p)] + ([generate_msr(p)] if w < t else [])
                for cycle in cycles:
                    report = verify_universal_cycle(cycle, universe)
                    assert report.ok and report.window_count == len(universe), (t, n, w)


# --- the streaming core against the same reference, fed in random chunks ---


@st.composite
def _chunked_case(draw, dense):
    """A cell whose t**n / |universe| ratio selects the wanted container, a cycle
    in random chunks, and either the cell's universe by name or a listed one that
    may be wrong.

    Cycles are engine cycles with a few symbols overwritten, possibly by symbols
    outside the alphabet (negative ones included), or random words that may be
    empty or shorter than the window. Chunks may be empty or shorter than n-1.
    """
    if dense:
        t, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        w = draw(st.integers(n * (t - 1) // 2, n * (t - 1)))
    else:
        t, n = draw(st.integers(5, 10)), draw(st.integers(2, 3))
        w = draw(st.integers(0, 2))
    size = len(_product_universe(t, n, w))
    assume(oracle._dense(t, n, size) == dense)
    foreign = st.integers(-2, t + 1)
    shape = draw(st.sampled_from(["engine", "random", "short"]))
    if shape == "engine":
        symbols = list(generate_concat(ParamSet(t, n, w)).symbols)
        for _ in range(draw(st.integers(0, 3))):
            symbols[draw(st.integers(0, len(symbols) - 1))] = draw(foreign)
    else:
        top = 3 * n + 40 if shape == "random" else n - 1
        symbols = draw(st.lists(draw(st.sampled_from([st.integers(0, t - 1), foreign])),
                                max_size=top))
    cuts = sorted(draw(st.lists(st.integers(0, len(symbols)), max_size=12)))
    chunks = [symbols[a:b] for a, b in zip([0, *cuts], [*cuts, len(symbols)])]
    if draw(st.booleans()):
        universe = None  # the cell's own universe, by name
    else:
        universe = _product_universe(t, n, w)
        if draw(st.booleans()):
            universe = draw(st.lists(st.sampled_from(universe), max_size=len(universe)))
        if draw(st.booleans()):  # words of other lengths or outside the alphabet
            universe = universe + draw(st.lists(
                st.lists(foreign, min_size=n - 1, max_size=n + 1).map(tuple), max_size=3))
    return (t, n, w), symbols, chunks, universe


@pytest.mark.parametrize("dense", [True, False])
@settings(max_examples=300, deadline=None)
@given(data=st.data(), full_details=st.booleans(), max_universe=CAPS,
       batch=st.sampled_from([1, 2, 3, 7, oracle.BATCH]))
def test_streaming_core_matches_reference(dense, data, full_details, max_universe, batch):
    (t, n, w), symbols, chunks, universe = data.draw(_chunked_case(dense))
    if universe is None:
        universe = _product_universe(t, n, w)

        def run():
            return verify_stream(iter(chunks), "bounded_words", t=t, n=n, w=w,
                                 max_universe=max_universe, full_details=full_details)
    else:
        def run():
            coded = oracle._coded(set(universe), n)
            oracle._check_cap(coded.size + len(coded.stray), max_universe)
            return oracle._verify(iter(chunks), coded, full_details)
    with mock.patch.object(oracle, "BATCH", batch):
        new = _outcome(run)
    assert new == _outcome(_reference_verify, symbols, universe, n, max_universe, full_details)
