import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwcycles import msr
from bwcycles.combmaps import engine_chunks
from bwcycles.grandmama import GenStats, iter_successor_chunks
from bwcycles.msr import (
    check_conjecture,
    generate_msr,
    generate_reverse_colex,
    iter_msr_chunks,
    successor_h2,
)
from bwcycles.oracle import enumerate_universe, verify_universal_cycle
from bwcycles.words import ParamSet, Word, necklace_info, words_iter


GOLDEN = {
    (5, 3, 4): "00040013010300220112020031012102111",
    (4, 3, 3): "00030012010200210111",
    (4, 4, 3): "00003000120010200021001110101100201",
    (2, 2, 1): "001",
}


def test_msr_goldens():
    for (t, n, w), expected in GOLDEN.items():
        got = generate_msr(ParamSet(t, n, w))
        assert str(got) == expected, (t, n, w)
        assert got.engine == "msr"


def test_reverse_colex_goldens():
    for (t, n, w), expected in GOLDEN.items():
        got = generate_reverse_colex(ParamSet(t, n, w))
        assert str(got) == expected, (t, n, w)
    assert str(generate_reverse_colex(ParamSet(3, 1, 2))) == "021"


def _reference_reverse_colex(t, n, w):
    """Brute force: every length-(n+1) word of weight w that is its least
    rotation, sorted into reverse colex order, each cut to its smallest period."""
    necklaces = []
    for word in words_iter(t, n + 1, None):
        if sum(word) != w:
            continue
        rotations = [word[i:] + word[:i] for i in range(1, n + 2)]
        if word == min(rotations):
            necklaces.append((word, rotations.index(word) + 1))
    necklaces.sort(key=lambda item: item[0][::-1], reverse=True)
    out = []
    for word, p in necklaces:
        out.extend(word[:p])
    return tuple(out)


# every cell with w < t, t <= 8, n <= 7 and t^(n+1) <= 10^6
DIFFERENTIAL_GRID = [
    (t, n, w)
    for t in range(1, 9)
    for n in range(1, 8)
    if t ** (n + 1) <= 10**6
    for w in range(t)
]

# cells with w >> n, where most necklaces of weight at most w are lighter than
# w: the cells of --subsets 1000 1, --multisets-diff 300 2, --subsets 300 2 and
# --multisets-diff 60 3
HEAVY_CELLS = [(1000, 1, 999), (300, 2, 299), (299, 2, 298), (60, 3, 59)]


@pytest.mark.slow
def test_reverse_colex_matches_reference():
    for t, n, w in DIFFERENTIAL_GRID:
        assert generate_reverse_colex(ParamSet(t, n, w)).symbols == _reference_reverse_colex(
            t, n, w), (t, n, w)


def test_reverse_colex_comparison_budget():
    # the C5 budget: at most two symbol comparisons per loop, 16 per symbol,
    # and at most one necklace test per symbol
    for t, n, w in DIFFERENTIAL_GRID + HEAVY_CELLS + [(10, 11, 9), (10, 13, 9)]:
        stats = GenStats()
        generate_reverse_colex(ParamSet(t, n, w), stats=stats)
        assert 2 * stats.comparisons <= 16 * stats.symbols, (t, n, w, stats)
        assert stats.necklace_tests <= stats.symbols, (t, n, w, stats)
    # a seeded full period: the rule's steps to a chunk end, the descent, the walk
    for params, seed in [(ParamSet(10, 11, 9), (0, 1, 0, 2, 0, 0, 3, 0, 0, 1, 0)),
                         (ParamSet(300, 2, 299), (150, 43)), (ParamSet(300, 2, 299), (0, 299))]:
        stats = GenStats()
        _, chunks = engine_chunks(params, "msr", seed, None, stats)
        assert sum(map(len, chunks)) == stats.symbols == params.universe_size, params
        assert 2 * stats.comparisons <= 16 * stats.symbols, (params, stats)
        assert stats.necklace_tests <= stats.symbols, (params, stats)


@pytest.mark.slow
def test_reverse_colex_walks_the_msr_tree(monkeypatch):
    # the walk's chunks are the aperiodic prefixes of the MSR tree's preorder,
    # and every kind of decision it makes turns up on the grid
    from bwcycles.cyclejoin import FeedbackKind, build_tree

    tested = {}
    real = msr._period_count

    def recording(a, n):
        p, it = real(a, n)
        word = tuple(a[:n])
        assert word not in tested, word
        tested[word] = p
        return p, it

    monkeypatch.setattr(msr, "_period_count", recording)
    seen = set()
    for t, n, w in DIFFERENTIAL_GRID:
        p = ParamSet(t, n, w)
        tree = build_tree(FeedbackKind.MSR, p)
        tested.clear()
        expected = [list(node[:necklace_info(node).aperiodic_prefix_len]) for node in tree.preorder()]
        assert list(msr.iter_reverse_colex_prefixes(p)) == expected, (t, n, w)
        candidates = set()
        for node in tree.preorder():
            f = next((i for i, s in enumerate(node) if s), n)
            for j in (f - 1, f):
                if j < 0 or j + 1 > n or not node[j + 1]:
                    continue
                child = list(node)
                child[j] += 1
                child[j + 1] -= 1
                child = tuple(child)
                candidates.add(child)
                in_tree = child in tree.children[node]
                if not child[-1]:
                    assert child not in tested, child
                    seen.add("trailing zero")
                elif child not in tested:
                    assert not in_tree or necklace_info(child).aperiodic_prefix_len == n + 1
                    seen.add("Lyndon by runs" if in_tree else "refused by runs")
                elif not tested[child]:
                    assert not in_tree, child
                    seen.add("tested, no necklace")
                else:
                    assert in_tree, child
                    seen.add("tested, aperiodic" if tested[child] == n + 1 else "tested, periodic")
        assert tested.keys() <= candidates, (t, n, w)
    assert seen == {"trailing zero", "Lyndon by runs", "refused by runs", "tested, no necklace",
                    "tested, aperiodic", "tested, periodic"}


def test_missing_symbol_necklaces_end_exactly_the_msr_chunks():
    # a seeded msr run resumes the walk where [z] + W, its window W with the
    # missing symbol z = w - weight(W) in front, is a necklace: that holds exactly
    # at the chunk ends, and the necklace is the chunk's
    cells = 0
    for t in range(1, 8):
        for n in range(1, 7):
            for w in range(t):
                cells += 1
                cycle, ends = [], {}
                for chunk in msr.iter_reverse_colex_prefixes(ParamSet(t, n, w)):
                    cycle += chunk
                    ends[len(cycle) - 1] = chunk
                size = len(cycle)
                for e in range(size):
                    win = [cycle[(e - n + 1 + d) % size] for d in range(n)]
                    word = [w - sum(win), *win]
                    marked = necklace_info(word).is_necklace
                    assert marked == (e in ends), (t, n, w, e)
                    if marked:
                        assert ends[e] == word[: len(ends[e])], (t, n, w, e)
    assert cells == 168


def test_check_conjecture_where_w_dwarfs_n():
    # unseeded msr streams the tree walk in place of h2, so they must agree on
    # the encoded cells with w >> n too, the paper's --subsets 1001 2, --subsets
    # 200 3 and --subsets 52 5 among them ((48,5,47) takes about 5 s)
    for t, n, w in HEAVY_CELLS + [(1000, 2, 999), (198, 3, 197), (48, 5, 47)]:
        rep = check_conjecture(ParamSet(t, n, w))
        assert rep.holds, (t, n, w, rep)
        assert rep.length_msr == rep.length_reverse_colex == ParamSet(t, n, w).universe_size


def test_successor_h2_examples():
    p = ParamSet(5, 3, 4)
    assert successor_h2(p, (0, 0, 0)) == 4
    assert successor_h2(p, (0, 0, 4)) == 0
    assert successor_h2(p, (0, 2, 1)) == 1
    assert successor_h2(p, (1, 2, 0)) == 2
    assert successor_h2(p, Word((1, 1, 1), 5)) == 0


def test_successor_h2_weight_guard():
    with pytest.raises(ValueError):
        successor_h2(ParamSet(4, 3, 4), (0, 0, 0))
    with pytest.raises(ValueError):
        generate_msr(ParamSet(3, 5, 3))
    with pytest.raises(ValueError):
        generate_reverse_colex(ParamSet(3, 2, 3))


def test_h2_streams_only_behind_its_weight_guard():
    # the h1 stream has no switch to h2, so h2's w < t rule cannot be skipped
    assert "msr" not in inspect.signature(iter_successor_chunks).parameters
    with pytest.raises(TypeError):
        iter_successor_chunks(ParamSet(3, 3, 5), msr=True)
    with pytest.raises(ValueError, match="needs w < t"):
        iter_msr_chunks(ParamSet(3, 3, 5))
    with pytest.raises(ValueError, match="needs w < t"):
        iter_msr_chunks(ParamSet(3, 3, 5), start=(0, 0, 9))  # the guard comes first
    with pytest.raises(ValueError, match="window length"):
        iter_msr_chunks(ParamSet(3, 3, 2), start=(0, 0))


def test_successor_h2_bad_window():
    p = ParamSet(4, 3, 3)
    with pytest.raises(ValueError):
        successor_h2(p, (0, 0))
    with pytest.raises(ValueError):
        successor_h2(p, (2, 2, 0))  # weight 4 > w


def test_successor_h2_one_test_budget():
    for t, n, w in [(5, 3, 4), (6, 4, 5), (2, 6, 1), (4, 1, 3)]:
        p = ParamSet(t, n, w)
        cycle = generate_msr(p)
        stats = GenStats()
        wins = set(cycle.windows())
        for win in wins:
            successor_h2(p, win, stats=stats)
        assert stats.necklace_tests <= len(wins), (t, n, w)


def test_successor_h2_optimized_equals_exhaustive():
    for t, n, w in [(5, 3, 4), (4, 4, 3), (6, 3, 5), (2, 6, 1), (4, 1, 3), (6, 1, 5)]:
        p = ParamSet(t, n, w)
        for win in set(generate_msr(p).windows()):
            assert successor_h2(p, win) == successor_h2(p, win, exhaustive=True), (t, n, w, win)


def test_msr_universality_spot():
    for t, n, w in [(5, 3, 4), (4, 4, 3), (3, 5, 2), (6, 2, 5), (4, 1, 3)]:
        p = ParamSet(t, n, w)
        cycle = generate_msr(p)
        universe = enumerate_universe("bounded_words", t=t, n=n, w=p.w_eff)
        assert verify_universal_cycle(cycle, universe).ok, (t, n, w)


def test_msr_from_seed_is_rotation():
    p = ParamSet(4, 3, 3)
    base = generate_msr(p).symbols
    doubled = base + base
    for i in range(len(base)):
        got = generate_msr(p, start=doubled[i : i + 3]).symbols
        assert got == doubled[i : i + len(base)], i


def test_msr_degenerates():
    assert generate_msr(ParamSet(3, 3, 0)).symbols == (0,)
    assert str(generate_msr(ParamSet(4, 1, 3))) == "0312"
    assert str(generate_reverse_colex(ParamSet(4, 1, 3))) == "0312"


@given(st.integers(2, 5), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_msr_state_z_invariant(t, n, data):
    # the missing symbol z = w - weight(window) updates in O(1) along the cycle
    w = data.draw(st.integers(0, t - 1))
    p = ParamSet(t, n, w)
    cycle = generate_msr(p)
    if len(cycle) < n:
        return
    windows = list(cycle.windows())
    z = p.w_eff - sum(windows[0])
    for win, nxt in zip(windows, windows[1:] + windows[:1]):
        z += win[0] - nxt[-1]
        assert z == p.w_eff - sum(nxt)
        assert 0 <= z < t


def test_msr_stats_pinned():
    # (necklace_tests, comparisons, symbols) as the separate h2 core counted them
    for (t, n, w), expected in [((7, 5, 6), (161, 751, 462)), ((10, 4, 9), (347, 1275, 715))]:
        stats = GenStats()
        generate_msr(ParamSet(t, n, w), stats=stats)
        assert (stats.necklace_tests, stats.comparisons, stats.symbols) == expected, (t, n, w)


def test_check_conjecture_small():
    for t, n, w in [(5, 3, 4), (4, 3, 3), (2, 2, 1), (3, 1, 2), (6, 4, 5)]:
        rep = check_conjecture(ParamSet(t, n, w))
        assert rep.holds, (t, n, w)
        assert rep.first_divergence is None
        assert rep.length_msr == rep.length_reverse_colex
        d = rep.to_dict()
        assert d["holds"] is True and d["first_divergence"] is None


def test_check_conjecture_reports_divergence(monkeypatch):
    p = ParamSet(5, 3, 4)
    expected = GOLDEN[(5, 3, 4)]
    real = msr.iter_reverse_colex_prefixes

    def one_symbol_changed(params, stats=None):
        symbols = [s for chunk in real(params, stats) for s in chunk]
        symbols[7] = (symbols[7] + 1) % params.t
        # one symbol per chunk, so a report that stops reading at the divergence
        # gets the length wrong
        return iter([[s] for s in symbols])

    monkeypatch.setattr(msr, "iter_reverse_colex_prefixes", one_symbol_changed)
    rep = check_conjecture(p)
    assert not rep.holds
    assert rep.first_divergence == (7, int(expected[7]), (int(expected[7]) + 1) % 5)
    assert (rep.length_msr, rep.length_reverse_colex) == (35, 35)

    def tail_dropped(params, stats=None):
        return iter([[s for chunk in real(params, stats) for s in chunk][:30]])

    monkeypatch.setattr(msr, "iter_reverse_colex_prefixes", tail_dropped)
    rep = check_conjecture(p)
    assert rep.first_divergence == (30, int(expected[30]), -1)
    assert (rep.length_msr, rep.length_reverse_colex) == (35, 30)
    assert rep.to_dict()["first_divergence"] == {
        "index": 30, "msr": int(expected[30]), "reverse_colex": -1}

    def symbol_appended(params, stats=None):
        return iter([[s for chunk in real(params, stats) for s in chunk], [2]])

    monkeypatch.setattr(msr, "iter_reverse_colex_prefixes", symbol_appended)
    rep = check_conjecture(p)
    assert rep.first_divergence == (35, -1, 2)
    assert (rep.length_msr, rep.length_reverse_colex) == (35, 36)


def test_check_conjecture_report_shape_on_divergence():
    # fabricate a divergence by comparing mismatched sequences directly
    from bwcycles.msr import ConjectureReport

    rep = ConjectureReport(2, 2, 1, False, 3, 3, (1, 0, 1))
    d = rep.to_dict()
    assert d["first_divergence"] == {"index": 1, "msr": 0, "reverse_colex": 1}


def test_successor_h2_alphabet_wider_than_a_byte():
    # the cell of --multisets-diff 300 2; symbols above 255 still compare by value
    p = ParamSet(300, 2, 299)
    rng = random.Random(300)
    windows = [(0, 0), (299, 0), (0, 299), (150, 149), (256, 43), (43, 256)]
    for _ in range(2000):
        a1 = rng.randrange(300)
        windows.append((a1, rng.randrange(300 - a1)))
    for win in windows:
        stats = GenStats()
        fast = successor_h2(p, win, stats=stats)
        assert stats.necklace_tests <= 1, win
        assert fast == successor_h2(p, win, exhaustive=True), win
    assert max(generate_msr(p).symbols) == 299


def test_msr_matches_generic_tree_successor():
    from bwcycles.cyclejoin import FeedbackKind, build_tree, generic_successor

    p = ParamSet(5, 3, 4)
    tree = build_tree(FeedbackKind.MSR, p)
    for win in set(generate_msr(p).windows()):
        assert successor_h2(p, win) == generic_successor(tree, win)


def test_successor_h2_companion_symbol_cap():
    # with no zero padding the symbol after x is y = z - x + a1, so x <= y
    # bounds the start candidate; starting higher can need two decrements.
    # Window 13 at (7,2,6) is the smallest case that goes wrong without it.
    p = ParamSet(7, 2, 6)
    assert successor_h2(p, (1, 3)) == successor_h2(p, (1, 3), exhaustive=True) == 2
    assert successor_h2(p, (2, 3)) == successor_h2(p, (2, 3), exhaustive=True) == 0
    report = verify_universal_cycle(
        generate_msr(p), enumerate_universe("bounded_words", t=7, n=2, w=6)
    )
    assert report.ok
    for t in range(7, 11):
        p = ParamSet(t, 2, t - 1)
        for a1 in range(t):
            for a2 in range(t - a1):
                stats = GenStats()
                fast = successor_h2(p, (a1, a2), stats=stats)
                assert stats.necklace_tests <= 1
                assert fast == successor_h2(p, (a1, a2), exhaustive=True), (t, a1, a2)
