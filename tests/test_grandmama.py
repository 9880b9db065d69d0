import hashlib
from itertools import chain, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwcycles import grandmama, msr
from bwcycles.combmaps import engine_chunks
from bwcycles.grandmama import (
    GenStats,
    UCycle,
    generate_by_successor,
    generate_concat,
    iter_concat_prefixes,
    iter_successor_chunks,
    successor_h1,
)
from bwcycles.msr import (generate_msr, iter_msr_chunks, iter_reverse_colex_prefixes,
                          successor_h2)
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
    # every cell with t, n <= 7 and at most 3 * 10^4 words
    cells = 0
    for t in range(1, 8):
        for n in range(1, 8):
            for w in range(0, n * (t - 1) + 1):
                params = ParamSet(t, n, w)
                if params.universe_size <= 3 * 10**4:
                    assert generate_concat(params).symbols == brute_concat(params), (t, n, w)
                    cells += 1
    assert cells == 530


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


def _chunk_ends(chunks):
    """(the cycle, {position of each chunk's last symbol: that chunk})."""
    cycle, ends = [], {}
    for chunk in chunks:
        cycle += chunk
        ends[len(cycle) - 1] = chunk
    return cycle, ends


@pytest.mark.slow
def test_necklace_windows_end_exactly_the_concat_chunks():
    # a seeded grandmama run resumes the walk where its window is a necklace other
    # than 0^n: such a window ends exactly that necklace's chunk, and so does every
    # chunk end but the first, the root's [0] at position 0
    cells = 0
    for t in range(1, 7):
        for n in range(1, 8):
            for w in range(n * (t - 1) + 1):
                p = ParamSet(t, n, w)
                if not n <= p.universe_size <= 3 * 10**4:
                    continue
                cells += 1
                cycle, ends = _chunk_ends(iter_concat_prefixes(p))
                size = len(cycle)
                for e in range(size):
                    win = [cycle[(e - n + 1 + d) % size] for d in range(n)]
                    marked = any(win) and necklace_info(win).is_necklace
                    assert marked == (e in ends and e > 0), (p, e)
                    if marked:
                        assert ends[e] == win[: len(ends[e])], (p, e)
    assert cells == 372


# every (t, n) with t = 2 and n <= 12 or t = 3 and n <= 8
SMALL_ALPHABET_GRID = [(2, n) for n in range(1, 13)] + [(3, n) for n in range(1, 9)]


def test_walks_match_brute_force_on_small_alphabets_through_every_branch(monkeypatch):
    # most children are decided by their zero runs; the ones left are tested,
    # and each kind of tested candidate must turn up on this grid
    tested = []
    real = grandmama._period_count

    def recording(a, n):
        p, it = real(a, n)
        tested.append((tuple(a[:n]), p))
        return p, it

    msr_tested = set()

    def msr_recording(a, n):
        msr_tested.add(tuple(a[:n]))
        return real(a, n)

    monkeypatch.setattr(grandmama, "_period_count", recording)
    monkeypatch.setattr(msr, "_period_count", msr_recording)
    outcomes, msr_outcomes = set(), set()
    for t, n in SMALL_ALPHABET_GRID:
        colex = sorted(_brute_necklaces(t, n, n * (t - 1)), key=_colex)
        for w in range(n * (t - 1) + 1):
            expected = [list(word[:p]) for word, p in colex if sum(word) <= w]
            assert list(iter_concat_prefixes(ParamSet(t, n, w))) == expected, (t, n, w)
        # the reverse walk: length n+1, weight exactly w < t
        reverse = sorted(_brute_necklaces(t, n + 1, t - 1), key=_colex, reverse=True)
        for w in range(t):
            expected = [list(word[:p]) for word, p in reverse if sum(word) == w]
            assert list(iter_reverse_colex_prefixes(ParamSet(t, n, w))) == expected, (t, n, w)
        outcomes |= _tie_outcomes(colex, t, _concat_candidates, {word for word, _ in tested})
        msr_outcomes |= _tie_outcomes(reverse, t, _msr_candidates, msr_tested)
    assert outcomes == {"below", "above", "equal"}
    # the reverse walk's weights stay below t <= 3 here, which leaves no room for a
    # tie that is not periodic; test_msr_walk_ties_take_every_follower_outcome has them
    assert msr_outcomes == {"equal"}

    def leading_zeros(word):
        return next((k for k, s in enumerate(word) if s), len(word))

    # the probe at change index 0: the bumped first symbol is at least 2
    assert any(word[0] >= 2 for word, _ in tested)
    # the probe with a zero run inside as long as the leading one (L == i >= 1)
    assert any(0 < (z := leading_zeros(word)) < len(word) and word[z] >= 2 for word, _ in tested)
    # the scan child 0^j 1 0^j 1.. with i == 2j+1 and a_i == 1, periodic and not
    for periodic in (True, False):
        assert any(0 < (j := leading_zeros(word)) and word[j:2 * j + 2] == (1,) + (0,) * j + (1,)
                   and (0 < p < len(word)) == periodic for word, p in tested), periodic


def _follower_outcome(word):
    """How the walks decide a word that ends nonzero and whose leading zero run, of
    length l >= 1, is as long as its longest other zero run: its follower
    word[l:], cut to the length of the least follower of those other runs, is
    "below", "above" or "equal" to it. None for any other word."""
    lead = next((k for k, s in enumerate(word) if s), len(word))
    if not 0 < lead < len(word) or not word[-1]:
        return None
    followers, q = {}, lead
    for i in range(lead, len(word)):
        if word[i]:
            followers.setdefault(i - q, []).append(word[i:])
            q = i + 1
    if max(followers) != lead:
        return None
    least = min(followers[lead])
    own = word[lead:lead + len(least)]
    return "below" if own < least else "above" if own > least else "equal"


def _concat_candidates(node, t):
    """The concat walk's candidate children of a node: the probe and the scan."""
    if not any(node):
        return [node[:-1] + (1,)]
    i = next(k for k, s in enumerate(node) if s)
    probe = [node[:i] + (node[i] + 1,) + node[i + 1:]] if node[i] < t - 1 else []
    return probe + [(0,) * j + (1,) + (0,) * (i - 1 - j) + node[i:] for j in range(i)]


def _msr_candidates(node, t):
    """The MSR tree walk's candidate children of a node: one unit of weight moved
    from j+1 to j, for j = f-1 and f."""
    f = next((k for k, s in enumerate(node) if s), len(node) - 1)
    out = []
    for j in (f - 1, f):
        if 0 <= j and j + 1 < len(node) and node[j + 1]:
            out.append(node[:j] + (node[j] + 1, node[j + 1] - 1) + node[j + 2:])
    return out


def _tie_outcomes(nodes, t, candidates, tested):
    """The follower outcomes of the tied candidates of these (node, period) pairs,
    after checking each: below its follower a Lyndon word, above it no necklace,
    both untested; equal to it tested."""
    periods, outcomes = dict(nodes), set()
    for node, _ in nodes:
        for child in candidates(node, t):
            outcome = _follower_outcome(child)
            if outcome is None:
                continue
            outcomes.add(outcome)
            assert (child in tested) == (outcome == "equal"), child
            if outcome == "below":
                assert periods.get(child) == len(child), child
            elif outcome == "above":
                assert child not in periods, child
    return outcomes


def test_msr_walk_ties_take_every_follower_outcome(monkeypatch):
    tested = set()
    real = msr._period_count

    def recording(a, n):
        tested.add(tuple(a[:n]))
        return real(a, n)

    monkeypatch.setattr(msr, "_period_count", recording)
    outcomes = set()
    for t in range(2, 7):
        for n in range(1, 6):
            reverse = sorted(_brute_necklaces(t, n + 1, t - 1), key=_colex, reverse=True)
            for w in range(t):
                expected = [list(word[:p]) for word, p in reverse if sum(word) == w]
                assert list(iter_reverse_colex_prefixes(ParamSet(t, n, w))) == expected, (t, n, w)
            outcomes |= _tie_outcomes(reverse, t, _msr_candidates, tested)
    assert outcomes == {"below", "above", "equal"}


def test_walks_test_each_candidate_once(monkeypatch):
    # each walk's necklace tests, recorded in the module that calls _period_count
    tested = []

    def recording(module):
        real = module._period_count

        def record(a, n):
            tested.append(tuple(a[:n]))
            return real(a, n)

        monkeypatch.setattr(module, "_period_count", record)

    recording(grandmama)
    recording(msr)
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
    for (t, n, w), expected in [((4, 6, 9), (92, 412, 2338)), ((5, 3, 4), (4, 7, 35))]:
        stats = GenStats()
        chunks = list(iter_concat_prefixes(ParamSet(t, n, w), stats))
        assert sum(map(len, chunks)) == expected[2], (t, n, w)
        assert (stats.necklace_tests, stats.comparisons, stats.symbols) == expected, (t, n, w)


def test_reverse_walk_stats_pinned():
    # (necklace_tests, comparisons, symbols) of the MSR tree walk unseeded msr runs
    stats = GenStats()
    chunks = list(iter_reverse_colex_prefixes(ParamSet(7, 5, 6), stats))
    assert sum(map(len, chunks)) == 462
    assert (stats.necklace_tests, stats.comparisons, stats.symbols) == (10, 50, 462)


def test_seeded_run_stats_pinned():
    # (necklace_tests, comparisons, symbols) of a seeded full period from mid-cycle:
    # the rule's steps to a chunk end, the walk's descent to that necklace, its rest
    for engine, cell, seed, expected in [("grandmama", (4, 6, 9), (0, 1, 2, 2, 1, 2), (93, 417, 2338)),
                                         ("msr", (7, 5, 6), (0, 1, 2, 0, 0), (16, 66, 462))]:
        stats = GenStats()
        _, chunks = engine_chunks(ParamSet(*cell), engine, seed, None, stats)
        assert sum(map(len, chunks)) == expected[2], cell
        assert (stats.necklace_tests, stats.comparisons, stats.symbols) == expected, cell


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


def test_successor_alphabet_past_the_code_point_range():
    # symbols are plain ints, so the rules take alphabets past the 1,114,112 code points
    top = ParamSet(1_114_112, 2, 1_114_111)
    assert generate_by_successor(top, start=(0, 1_114_111), steps=3).symbols == (0, 1_114_111, 0, 0, 1)
    assert successor_h2(top, (0, 0)) == 1_114_111
    for t in (1_114_113, 2**40):
        wide = ParamSet(t, 2, t - 1)
        for rule in (successor_h1, successor_h2):
            for win in [(0, 0), (0, t - 1), (t - 1, 0), (1, t - 2)]:
                assert rule(wide, win) == rule(wide, win, exhaustive=True), (t, rule, win)
        p, start = ParamSet(t, 2, 5), (0, 3)
        for win in words_iter(t, 2, 5):
            for rule in (successor_h1, successor_h2):
                assert rule(p, win) == rule(p, win, exhaustive=True), (t, rule, win)
        steps = p.universe_size + 4
        got = generate_by_successor(p, start=start, steps=steps).symbols
        assert list(got) == _twin_run(successor_h1, p, start, steps), t
        got = list(chain.from_iterable(iter_msr_chunks(p, start, steps)))
        assert got == _twin_run(successor_h2, p, start, steps), t


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


def test_negative_steps_are_refused_by_every_successor_entry_point():
    # h1, h2 and the seeded runs count their steps down, so each refuses -1 up front
    p, seed = ParamSet(7, 5, 6), (0, 1, 0, 2, 0)
    refused = pytest.raises(ValueError, match="steps cannot be negative, got -1")
    for start in (None, seed):
        for rule in (iter_successor_chunks, generate_by_successor, iter_msr_chunks, generate_msr):
            with refused:
                rule(p, start, -1)
    for engine in ("grandmama", "msr"):
        with refused:
            engine_chunks(p, engine, seed, -1)


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


# seeds in the middle of the cycles of (4,10,15), (10,11,9) and --multisets-diff 300 2
SEEDED_BUDGET_CELLS = [(ParamSet(4, 10, 15), (0, 1, 0, 2, 0, 0, 3, 0, 0, 1)),
                       (ParamSet(10, 11, 9), (0, 1, 0, 2, 0, 0, 3, 0, 0, 1, 0)),
                       (ParamSet(300, 2, 299), (150, 43))]


def test_partial_reads_count_only_the_steps_yielded():
    # a stream closed after k symbols holds the counters of the rule calls behind
    # them, whether k ends inside the start window, at its end or past it
    for t, n, w in [(4, 3, 3), (5, 4, 4), (3, 6, 2), (6, 2, 5), (10, 5, 9)]:
        p = ParamSet(t, n, w)
        size = p.universe_size
        for rule, stream in [(successor_h1, iter_successor_chunks), (successor_h2, iter_msr_chunks)]:
            cycle = _twin_run(rule, p, (0,) * n, size - n)
            for k in sorted({1, n - 1, n, n + 1, size // 2, size - 1} - {0}):
                stats = GenStats()
                chunks = stream(p, stats=stats)
                got = list(islice(chain.from_iterable(chunks), k))
                chunks.close()
                calls = GenStats()
                for i in range(max(k - n, 0)):
                    rule(p, cycle[i : i + n], stats=calls)
                assert got == cycle[:k], (p, rule, k)
                assert (stats.symbols, stats.necklace_tests, stats.comparisons) == (
                    max(k, n), calls.necklace_tests, calls.comparisons), (p, rule, k)


def test_comparison_budget_spot():
    for t, n, w in [(2, 6, 6), (4, 10, 15)]:
        params = ParamSet(t, n, w)
        stats = GenStats()
        u = generate_concat(params, stats=stats)
        # each counted iteration performs at most two symbol comparisons
        assert 2 * stats.comparisons <= 16 * len(u), (t, n, w, stats)
        assert 0 < stats.necklace_tests <= len(u), (t, n, w, stats)
        assert stats.symbols == len(u)
    # a seeded full period: the rule's steps to a chunk end, the descent, the walk
    for params, seed in SEEDED_BUDGET_CELLS:
        stats = GenStats()
        _, chunks = engine_chunks(params, "grandmama", seed, None, stats)
        assert sum(map(len, chunks)) == stats.symbols == params.universe_size, params
        assert 2 * stats.comparisons <= 16 * stats.symbols, (params, stats)
        assert stats.necklace_tests <= stats.symbols, (params, stats)


def test_follower_rule_leaves_few_tests_per_symbol():
    # ties are decided by their followers, so the equal ones are all that is tested
    for walk, cell, budget in [(iter_concat_prefixes, (4, 10, 15), 0.015),
                               (iter_reverse_colex_prefixes, (10, 11, 9), 0.008)]:
        stats = GenStats()
        for _ in walk(ParamSet(*cell), stats):
            pass
        assert stats.symbols == ParamSet(*cell).universe_size, cell
        assert stats.necklace_tests <= budget * stats.symbols, (cell, stats)


# (walk, cell, SHA-256 of its chunks as text, (symbols, necklace tests, comparisons))
PAPER_CELL_PINS = [
    (iter_concat_prefixes, (1000, 2, 999),
     "9b69f72fef0ed025c8d6c69c14101ba9bcf6c245f667d17d1c5628afdeb0bc2e", (500500, 249999, 249999)),
    (iter_concat_prefixes, (198, 3, 197),
     "7b24fa2c5869ebd31c5a2c4c98f43c734eb76a6c47a658892ffaefa1e9ea4a66", (1313400, 431080, 855790)),
    (iter_concat_prefixes, (48, 5, 47),
     "d5de492b66b90a1a3bbf5cca673a802060387d50220df2ccb41119446ca6db44", (2598960, 437872, 1594537)),
    (iter_concat_prefixes, (4, 10, 15),
     "7bfe9168e384306a9793ab7665a0d03fd5c6c6ccd000330354f1ab1b1c4bd86c", (582440, 6650, 54291)),
    (iter_reverse_colex_prefixes, (1000, 2, 999),
     "7dfeee957f95d26a21a2a9af4c3afbe6d44952fd0000ea0df64c59b7b7fd926d", (500500, 166831, 332998)),
    (iter_reverse_colex_prefixes, (198, 3, 197),
     "3bc201d261654f99e7944e8ba871baf701dee8f246da7355c6a3a73458b6047d", (1313400, 327667, 962169)),
    (iter_reverse_colex_prefixes, (48, 5, 47),
     "eff779ad448624518245901627e2d5ddc3d73808f1527d6ca7d834a1bcd82c1f", (2598960, 365654, 1565683)),
    (iter_reverse_colex_prefixes, (10, 11, 9),
     "a649d7b277b2b8bee45343aebdc953816318d91a510ff4443805b66751a81272", (167960, 964, 10020)),
]


@pytest.mark.slow
def test_walks_on_the_paper_cells_are_pinned():
    # the subset and multiset cells (n-k+1, k, n-k) and (n, k, n-1) with small k, and
    # one tie-heavy cell per walk: every chunk, with its bounds, and every counter
    for walk, cell, digest, counts in PAPER_CELL_PINS:
        stats, h = GenStats(), hashlib.sha256()
        for chunk in walk(ParamSet(*cell), stats):
            h.update((" ".join(map(str, chunk)) + "\n").encode())
        assert h.hexdigest() == digest, (walk.__name__, cell)
        assert (stats.symbols, stats.necklace_tests, stats.comparisons) == counts, (walk.__name__, cell)
        # the C5 budget: one necklace test and 16 symbol comparisons per symbol
        assert stats.necklace_tests <= stats.symbols, (walk.__name__, cell)
        assert 2 * stats.comparisons <= 16 * stats.symbols, (walk.__name__, cell)


def _suspended(walk, names):
    """The named locals of a walk suspended at a yield, as text: its whole state
    (None for those the root's yield comes before)."""
    return repr([walk.gi_frame.f_locals.get(name) for name in names])


# (walk, node length less n, the locals its next step reads)
CONCAT_WALK = (grandmama._concat_walk, 0, ("a", "stack", "path", "j", "L", "F"))
MSR_TREE_WALK = (msr._msr_tree_walk, 1, ("a", "stack", "path", "j", "L", "F"))


@pytest.mark.slow
def test_resumed_walks_stream_the_fresh_walks_rest():
    # every node of each walk on every cell with t <= 6, n <= 7 and at most 3 * 10^4
    # words, and every so many nodes (and each deeper than all before) of MSR cells
    # whose paths run over a hundred frames deep and of two concat cells rich in
    # tied children, (4,10,15) and (48,5,47). A walk resumed at a node descends
    # to it, yields its chunk first and then holds the fresh walk's scratch word,
    # stack, path and entered child, so it streams exactly the fresh walk's rest; on
    # cells of at most 3000 words it is drained to the end too
    runs = []
    for t in range(1, 7):
        for n in range(1, 8):
            for w in range(n * (t - 1) + 1):
                p = ParamSet(t, n, w)
                if p.universe_size <= 3 * 10**4:
                    runs += [(p, walk, 1) for walk in [CONCAT_WALK] + [MSR_TREE_WALK] * (w < t)]
    assert len(runs) == 555
    runs += [(ParamSet(300, 2, 299), MSR_TREE_WALK, 997), (ParamSet(1000, 1, 999), MSR_TREE_WALK, 31),
             (ParamSet(60, 3, 59), MSR_TREE_WALK, 101), (ParamSet(4, 10, 15), CONCAT_WALK, 997),
             (ParamSet(48, 5, 47), CONCAT_WALK, 9973)]
    depths = []  # the most frames on each run's stack
    for p, (walk, extra, names), every in runs:
        fresh, states, depth = [], {}, 0
        for k, chunk in enumerate(gen := walk(p, None)):
            fresh.append(chunk)
            stack = gen.gi_frame.f_locals.get("stack", ())
            if k % every == 0 or len(stack) > depth:
                states[k] = _suspended(gen, names)
                depth = max(depth, len(stack))
        depths.append(depth)
        for k, state in states.items():
            node = fresh[k] * ((p.n + extra) // len(fresh[k]))
            resumed = walk(p, None, node)
            assert next(resumed) == fresh[k], (p, node)
            assert _suspended(resumed, names) == state, (p, node)
            if p.universe_size <= 3000:
                assert list(resumed) == fresh[k + 1:], (p, node)
    assert max(depths[:555]) == 24 and depths[555:] == [298, 499, 115, 14, 46]


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
