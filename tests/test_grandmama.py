from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwcycles import grandmama
from bwcycles.grandmama import (
    GenStats,
    UCycle,
    generate_by_successor,
    generate_concat,
    iter_concat_prefixes,
    iter_successor_chunks,
    successor_h1,
)
from bwcycles.msr import iter_msr_chunks, iter_reverse_colex_prefixes, successor_h2
from bwcycles.oracle import enumerate_universe, verify_universal_cycle
from bwcycles.words import ParamSet, Word, enumerate_bounded_necklaces, necklace_info, words_iter


GOLDEN = {
    (5, 3, 4): "00010111021031002012112022003013004",
    (4, 3, 3): "00010111021002012003",
    (4, 4, 3): "00001010011011100210002010200120003",
    (2, 2, 2): "0011",
    (3, 3, 2): "0001011002",
}


def brute_concat(params):
    out = []
    for wd in enumerate_bounded_necklaces(params):
        p = necklace_info(wd.symbols).aperiodic_prefix_len
        out.extend(wd.symbols[:p])
    return tuple(out)


def test_concat_goldens():
    for (t, n, w), expected in GOLDEN.items():
        got = generate_concat(ParamSet(t, n, w))
        assert str(got) == expected, (t, n, w)
        assert got.engine == "grandmama-concat"


def test_concat_prefix_chunks():
    chunks = list(iter_concat_prefixes(ParamSet(5, 3, 4)))
    # one chunk per necklace, in colex order, each an aperiodic prefix
    assert chunks[0] == [0]
    assert chunks[1] == [0, 0, 1]
    assert chunks[2] == [0, 1, 1]
    assert chunks[3] == [1]  # 111 contributes only its aperiodic prefix
    assert sum(len(c) for c in chunks) == 35
    assert len(chunks) == 13


def test_concat_matches_brute_reference():
    for t in range(1, 5):
        for n in range(1, 6):
            for w in range(0, n * (t - 1) + 1):
                params = ParamSet(t, n, w)
                assert generate_concat(params).symbols == brute_concat(params), (t, n, w)


def _brute_necklaces(t, length, max_weight):
    """(word, period) of every necklace of this length and weight <= max_weight,
    found by comparing each word with all of its rotations."""
    found = []
    for word in words_iter(t, length, max_weight):
        rotations = [word[i:] + word[:i] for i in range(1, length + 1)]
        if word == min(rotations):
            found.append((word, rotations.index(word) + 1))
    return found


def _colex(item):
    return item[0][::-1]


# every (t, n) with t <= 7, n <= 7 and t^n <= 3 * 10^5
WIDE_GRID = [(t, n) for t in range(1, 8) for n in range(1, 8) if t**n <= 3 * 10**5]


@pytest.mark.slow
def test_walks_match_brute_force_chunk_for_chunk_on_a_wide_grid():
    for t, n in WIDE_GRID:
        colex = sorted(_brute_necklaces(t, n, n * (t - 1)), key=_colex)
        for w in range(n * (t - 1) + 1):
            expected = [list(word[:p]) for word, p in colex if sum(word) <= w]
            assert list(iter_concat_prefixes(ParamSet(t, n, w))) == expected, (t, n, w)
        # reverse colex: length n+1, weight exactly w < t
        reverse = sorted(_brute_necklaces(t, n + 1, t - 1), key=_colex, reverse=True)
        for w in range(t):
            expected = [list(word[:p]) for word, p in reverse if sum(word) == w]
            assert list(iter_reverse_colex_prefixes(ParamSet(t, n, w))) == expected, (t, n, w)


def test_walks_test_each_candidate_once(monkeypatch):
    tested = []
    real = grandmama._period_count

    def recording(a, n):
        tested.append(tuple(a[:n]))
        return real(a, n)

    monkeypatch.setattr(grandmama, "_period_count", recording)
    for walk, (t, n, w) in [(iter_concat_prefixes, (4, 6, 9)), (iter_concat_prefixes, (5, 4, 8)),
                            (iter_reverse_colex_prefixes, (5, 4, 4)),
                            (iter_reverse_colex_prefixes, (7, 5, 6))]:
        tested.clear()
        stats = GenStats()
        chunks = list(walk(ParamSet(t, n, w), stats))
        assert chunks and tested, (walk.__name__, t, n, w)
        assert len(set(tested)) == len(tested) == stats.necklace_tests, (walk.__name__, t, n, w)


def test_concat_length_is_universe_size():
    for t, n, w in [(2, 6, 3), (3, 5, 7), (6, 3, 9), (5, 4, 4)]:
        params = ParamSet(t, n, w)
        assert len(generate_concat(params)) == params.universe_size


def test_concat_degenerates():
    assert str(generate_concat(ParamSet(1, 3, 0))) == "0"
    assert str(generate_concat(ParamSet(1, 5, 9))) == "0"
    assert str(generate_concat(ParamSet(4, 3, 0))) == "0"
    assert str(generate_concat(ParamSet(4, 1, 9))) == "0123"
    assert str(generate_concat(ParamSet(3, 1, 1))) == "01"


def test_concat_weight_clamping_reported():
    params = ParamSet(3, 3, 99)
    assert params.clamped and params.w_eff == 6
    unclamped = generate_concat(ParamSet(3, 3, 6))
    clamped = generate_concat(params)
    assert clamped.symbols == unclamped.symbols
    assert clamped.params.clamped


def test_concat_stats_pinned():
    # (necklace_tests, comparisons, symbols) of the colex walk; perfbench's
    # tests-per-symbol drift check reads these counts
    for (t, n, w), expected in [((4, 6, 9), (597, 2678, 2338)), ((5, 3, 4), (15, 29, 35))]:
        stats = GenStats()
        chunks = list(iter_concat_prefixes(ParamSet(t, n, w), stats))
        assert sum(map(len, chunks)) == expected[2], (t, n, w)
        assert (stats.necklace_tests, stats.comparisons, stats.symbols) == expected, (t, n, w)


def test_successor_h1_examples():
    p = ParamSet(5, 3, 4)
    assert successor_h1(p, (0, 0, 0)) == 1
    assert successor_h1(p, (0, 0, 4)) == 0
    assert successor_h1(p, (1, 1, 2)) == 0
    assert successor_h1(p, (1, 1, 0)) == 2
    assert successor_h1(p, (1, 0, 0)) == 2
    assert successor_h1(p, (3, 1, 0)) == 0
    assert successor_h1(p, Word((2, 1, 1), 5)) == 2


def test_successor_h1_rejects_bad_windows():
    p = ParamSet(3, 3, 2)
    with pytest.raises(ValueError):
        successor_h1(p, (0, 1))
    with pytest.raises(ValueError):
        successor_h1(p, (0, 1, 3))
    with pytest.raises(ValueError):
        successor_h1(p, (1, 1, 1))  # weight above the ceiling


def test_successor_rejects_non_integer_symbols():
    p = ParamSet(4, 3, 5)
    for bad in [(0, 1.5, 0), (0, "1", 0), (0, None, 0)]:
        for exhaustive in (False, True):
            with pytest.raises(ValueError, match="non-integer"):
                successor_h1(p, bad, exhaustive=exhaustive)
        with pytest.raises(ValueError, match="non-integer"):
            generate_by_successor(p, start=bad, steps=5)
    with pytest.raises(ValueError, match="non-integer"):
        successor_h2(ParamSet(4, 3, 3), (0, 1.0, 0))
    with pytest.raises(ValueError, match="non-integer"):
        iter_msr_chunks(ParamSet(4, 3, 3), start=(0, 1.0, 0))


def test_successor_alphabet_capped_at_the_code_point_range():
    # the loop holds its window as text: every code point is a symbol, no more
    top = ParamSet(1_114_112, 2, 1_114_111)
    assert generate_by_successor(top, start=(0, 1_114_111), steps=3).symbols == (0, 1_114_111, 0, 0, 1)
    assert successor_h2(top, (0, 0)) == 1_114_111
    with pytest.raises(ValueError, match="t <= 1114112"):
        successor_h1(ParamSet(1_114_113, 2, 5), (0, 0))
    with pytest.raises(ValueError, match="t <= 1114112"):
        iter_msr_chunks(ParamSet(1_114_113, 2, 5))


def test_successor_h1_single_test_budget():
    p = ParamSet(6, 6, 9)
    u = generate_concat(p)
    wins = set(u.windows())
    stats = GenStats()
    for win in wins:
        successor_h1(p, win, stats=stats)
    assert stats.necklace_tests <= len(wins)


def test_successor_matches_concat_from_zero():
    for t in range(2, 6):
        for n in range(1, 6):
            for w in (0, 1, n * (t - 1) // 2, n * (t - 1)):
                params = ParamSet(t, n, w)
                assert (
                    generate_by_successor(params).symbols
                    == generate_concat(params).symbols
                ), (t, n, w)


def test_successor_from_seed_is_rotation():
    params = ParamSet(4, 3, 3)
    base = generate_concat(params).symbols
    L = len(base)
    doubled = base + base
    for i in range(L):
        seed = doubled[i : i + 3]
        got = generate_by_successor(params, start=seed).symbols
        assert got == doubled[i : i + L], i


def test_successor_step_override():
    params = ParamSet(2, 2, 2)
    got = generate_by_successor(params, steps=6)
    assert str(got) == "00110011"  # wraps past one period


def test_successor_degenerate_short_cycle():
    params = ParamSet(1, 3, 0)
    got = generate_by_successor(params)
    assert got.symbols == (0,)


def test_optimized_equals_exhaustive():
    for t, n, w in [(5, 3, 4), (2, 6, 6), (6, 4, 5), (3, 5, 4), (4, 4, 12)]:
        params = ParamSet(t, n, w)
        for win in set(generate_concat(params).windows()):
            assert successor_h1(params, win) == successor_h1(
                params, win, exhaustive=True
            ), (t, n, w, win)


def test_successor_stats_pinned():
    # (necklace_tests, comparisons, symbols) as the separate h1 core counted them
    params = ParamSet(4, 6, 9)
    seed = generate_concat(params).symbols[7:13]
    for start, expected in [(None, (824, 4061, 2338)), (seed, (825, 4066, 2338))]:
        stats = GenStats()
        generate_by_successor(params, start=start, stats=stats)
        assert (stats.necklace_tests, stats.comparisons, stats.symbols) == expected, start


@pytest.mark.slow
def test_fast_equals_exhaustive_on_a_wide_grid():
    h1_windows = h2_windows = 0
    for t in range(2, 13):
        for n in range(1, 6):
            for w in range(n * (t - 1) + 1):
                params = ParamSet(t, n, w)
                h1_cell = (t <= 8 and n <= 4) or n <= 3
                for win in words_iter(t, n, w) if h1_cell or w < t else ():
                    if h1_cell:
                        h1_windows += 1
                        fast = successor_h1(params, win)
                        assert fast == successor_h1(params, win, exhaustive=True), (params, win)
                    if w < t:
                        h2_windows += 1
                        stats = GenStats()
                        fast = successor_h2(params, win, stats=stats)
                        assert stats.necklace_tests <= 1, (params, win)
                        assert fast == successor_h2(params, win, exhaustive=True), (params, win)
    assert (h1_windows, h2_windows) == (209_247, 50_292)


def _twin_run(rule, params, start, steps):
    """The symbols a rule's brute-force twin draws from ``start``, one window at a time."""
    out, win = list(start), tuple(start)
    for _ in range(steps):
        s = rule(params, win, exhaustive=True)
        out.append(s)
        win = win[1:] + (s,)
    return out


# t <= 9, n <= 8, cells of n to 20,000 words: for h1 every w <= t plus the middle
# and the top of the weight range, for h2 every w < t
WIDER_GRID = [
    (t, n, w)
    for t in range(2, 10)
    for n in range(1, 9)
    for w in sorted({*range(t + 1), n * (t - 1) // 2, n * (t - 1)})
    if w <= n * (t - 1) and n <= ParamSet(t, n, w).universe_size <= 20_000
]


@pytest.mark.slow
def test_stream_equals_exhaustive_twin_on_a_wider_grid():
    windows = {successor_h1: 0, successor_h2: 0}
    for t, n, w in WIDER_GRID:
        params = ParamSet(t, n, w)
        rules = [(successor_h1, iter_successor_chunks)]
        if w < t:
            rules.append((successor_h2, iter_msr_chunks))
        for rule, stream in rules:
            size = params.universe_size
            windows[rule] += size
            cycle = _twin_run(rule, params, (0,) * n, size - n)
            doubled = cycle + cycle
            # the fast rule called once per cyclic window, with its own counters
            calls = []
            for i in range(size):
                stats = GenStats()
                assert rule(params, doubled[i : i + n], stats=stats) == doubled[i + n], (params, i)
                calls.append((stats.necklace_tests, stats.comparisons))
            for i in sorted({0, 1, size // 3, size - 1}):
                stats = GenStats()
                got = list(chain.from_iterable(stream(params, doubled[i : i + n], stats=stats)))
                assert got == doubled[i : i + size], (params, rule, i)
                made = [calls[(i + k) % size] for k in range(size - n)]
                assert stats.necklace_tests == sum(c[0] for c in made), (params, rule, i)
                assert stats.comparisons == sum(c[1] for c in made), (params, rule, i)
    assert (windows[successor_h1], windows[successor_h2]) == (318_830, 92_259)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 5), st.integers(0, 12))
def test_cycle_is_universal_property(t, n, w):
    params = ParamSet(t, n, w)
    cycle = generate_concat(params)
    universe = enumerate_universe("bounded_words", t=t, n=n, w=params.w_eff)
    assert verify_universal_cycle(cycle, universe).ok


def test_comparison_budget_spot():
    params = ParamSet(2, 6, 6)
    stats = GenStats()
    u = generate_concat(params, stats=stats)
    # each counted iteration performs at most two symbol comparisons
    assert 2 * stats.comparisons <= 16 * len(u)
    assert stats.symbols == len(u)
    assert stats.necklace_tests > 0


def test_ucycle_windows_wrap():
    u = UCycle((0, 0, 1, 1), ParamSet(2, 2, 2), "grandmama-concat")
    assert u.window(3) == (1, 0)
    assert list(u.windows()) == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_ucycle_windows_match_window_at_every_start():
    # empty, one symbol, shorter than n, exactly n and longer than n
    for symbols in [(), (2,), (0, 1), (1, 0, 2), (0, 1, 2, 0), (0, 0, 1, 2, 1, 0, 2)]:
        for n in range(1, 9):
            u = UCycle(symbols, ParamSet(3, n, 2 * n), "user")
            assert list(u.windows()) == [u.window(i) for i in range(len(u))], (symbols, n)
