import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwcycles.words import (
    NecklaceInfo,
    ParamSet,
    Word,
    colex_less,
    count_bounded_words,
    enumerate_bounded_necklaces,
    necklace_info,
    weight,
    words_iter,
)


def rotations(word):
    return [tuple(word[i:]) + tuple(word[:i]) for i in range(len(word))]


def necklace_by_rotations(word):
    """Quadratic reference: a necklace is minimal among all its rotations."""
    word = tuple(word)
    return all(word <= r for r in rotations(word))


def smallest_period(word):
    word = tuple(word)
    for p in range(1, len(word) + 1):
        if len(word) % p == 0 and word == word[:p] * (len(word) // p):
            return p
    raise AssertionError("unreachable")


small_words = st.integers(min_value=2, max_value=5).flatmap(
    lambda t: st.lists(st.integers(0, t - 1), min_size=1, max_size=9)
)


def test_word_basics():
    w = Word((0, 1, 3), 5)
    assert w.weight == 4
    assert len(w) == 3
    assert list(w) == [0, 1, 3]
    assert str(w) == "013"
    assert Word.from_string("013", 5) == w
    assert Word.from_string("0,1,3", 5) == w
    big = Word((0, 11), 12)
    assert str(big) == "0,11"


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0, 3), 3)
    with pytest.raises(ValueError):
        Word((-1,), 3)
    with pytest.raises(ValueError):
        Word((0,), 0)


def test_paramset():
    p = ParamSet(3, 4, 2)
    assert (p.t, p.n, p.w) == (3, 4, 2)
    assert p.w_eff == 2 and not p.clamped
    clamped = ParamSet(3, 4, 100)
    assert clamped.w_eff == 8 and clamped.clamped
    with pytest.raises(ValueError):
        ParamSet(0, 1, 1)
    with pytest.raises(ValueError):
        ParamSet(2, 0, 1)
    with pytest.raises(ValueError):
        ParamSet(2, 1, -1)


def test_weight():
    assert weight((0, 0, 0)) == 0
    assert weight(Word((2, 3), 4)) == 5


def test_necklace_info_examples():
    assert necklace_info((0, 0, 0)) == NecklaceInfo(True, 1)
    assert necklace_info((0, 1, 0, 1)) == NecklaceInfo(True, 2)
    assert necklace_info((0, 1, 1)) == NecklaceInfo(True, 3)
    assert necklace_info((1, 0)) == NecklaceInfo(False, None)
    assert necklace_info((0, 2, 1)) == NecklaceInfo(True, 3)
    assert necklace_info((0, 1, 0)) == NecklaceInfo(False, None)
    assert necklace_info((1, 1, 1)) == NecklaceInfo(True, 1)
    assert necklace_info(Word((0, 0, 1, 3), 5)).is_necklace
    with pytest.raises(ValueError):
        necklace_info(())


@given(small_words)
def test_necklace_info_matches_rotation_oracle(word):
    info = necklace_info(word)
    assert info.is_necklace == necklace_by_rotations(word)
    if info.is_necklace:
        assert info.aperiodic_prefix_len == smallest_period(word)
        assert len(word) % info.aperiodic_prefix_len == 0
    else:
        assert info.aperiodic_prefix_len is None


def test_necklace_info_exhaustive_small():
    for t, n in [(2, 8), (3, 5), (4, 4)]:
        for word in product(range(t), repeat=n):
            assert necklace_info(word).is_necklace == necklace_by_rotations(word)


def test_colex_examples():
    assert colex_less((1, 0, 0), (0, 1, 0))
    assert colex_less((0, 1, 0), (0, 0, 1))
    assert not colex_less((0, 0, 1), (1, 0, 0))
    assert not colex_less((0, 1), (0, 1))
    with pytest.raises(ValueError):
        colex_less((0, 1), (0, 1, 0))


@given(small_words, small_words)
def test_colex_strict_order(a, b):
    if len(a) != len(b):
        with pytest.raises(ValueError):
            colex_less(a, b)
        return
    if tuple(a) == tuple(b):
        assert not colex_less(a, b)
    else:
        assert colex_less(a, b) != colex_less(b, a)


def test_enumerate_bounded_necklaces_small():
    got = enumerate_bounded_necklaces(ParamSet(3, 3, 2))
    assert [w.symbols for w in got] == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 0, 2)]


def test_enumerate_bounded_necklaces_t5_n3_w4():
    got = [w.symbols for w in enumerate_bounded_necklaces(ParamSet(5, 3, 4))]
    expected = [
        (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (0, 2, 1), (0, 3, 1),
        (0, 0, 2), (0, 1, 2), (1, 1, 2), (0, 2, 2), (0, 0, 3), (0, 1, 3),
        (0, 0, 4),
    ]
    assert got == expected


def test_enumerate_bounded_necklaces_degenerate():
    assert [w.symbols for w in enumerate_bounded_necklaces(ParamSet(1, 4, 0))] == [(0, 0, 0, 0)]
    assert [w.symbols for w in enumerate_bounded_necklaces(ParamSet(4, 1, 9))] == [
        (0,), (1,), (2,), (3,),
    ]


@given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 10))
def test_enumerate_bounded_necklaces_properties(t, n, w):
    got = enumerate_bounded_necklaces(ParamSet(t, n, w))
    syms = [g.symbols for g in got]
    # colex-sorted, no duplicates
    assert syms == sorted(set(syms), key=lambda s: s[::-1])
    # exactly the weight-bounded necklaces
    expected = {
        word
        for word in product(range(t), repeat=n)
        if sum(word) <= w and necklace_by_rotations(word)
    }
    assert set(syms) == expected


@pytest.mark.parametrize("t", range(5))
def test_words_iter_is_the_filtered_product(t):
    for n in range(6):
        for w in (None, *range(-1, n * max(t - 1, 0) + 2)):
            expected = [x for x in product(range(t), repeat=n) if w is None or sum(x) <= w]
            assert list(words_iter(t, n, w)) == expected, (t, n, w)


def test_words_iter_prunes_heavy_prefixes():
    # 31 words of weight <= 1 out of 2^30: only a pruned scan finishes at once
    assert sum(1 for _ in words_iter(2, 30, 1)) == 31
    assert len(enumerate_bounded_necklaces(ParamSet(2, 30, 1))) == 2
    with pytest.raises(ValueError, match="refusing to scan 129140163 words"):
        enumerate_bounded_necklaces(ParamSet(3, 17, 34))


def test_count_bounded_words():
    assert count_bounded_words(2, 2, 2) == 4
    assert count_bounded_words(5, 3, 4) == 35  # matches |U_5(3,4)|
    assert count_bounded_words(4, 3, 3) == 20
    assert count_bounded_words(3, 4, 100) == 81  # clamped to the full cube
    for t, n, w in [(2, 5, 3), (3, 4, 5), (5, 3, 9)]:
        brute = sum(1 for word in product(range(t), repeat=n) if sum(word) <= w)
        assert count_bounded_words(t, n, w) == brute
    with pytest.raises(ValueError):
        count_bounded_words(0, 1, 0)


def test_count_bounded_words_matches_a_product_count():
    # every weight from below zero to past the top, and the empty word at n = 0
    for t in range(1, 6):
        for n in range(7):
            weights = [sum(word) for word in product(range(t), repeat=n)]
            for w in range(-2, n * (t - 1) + 3):
                assert count_bounded_words(t, n, w) == sum(x <= w for x in weights), (t, n, w)
    assert count_bounded_words(3, 0, 0) == 1 and count_bounded_words(3, 0, -1) == 0
    with pytest.raises(ValueError):
        count_bounded_words(0, 0, 0)
    with pytest.raises(ValueError):
        count_bounded_words(2, -1, 0)


def test_count_bounded_words_on_a_large_encoded_cell():
    # the k-subset cell of n = 20000, k = 10000: one binomial, no table of n * w entries
    assert count_bounded_words(10001, 10000, 10000) == math.comb(20000, 10000)


def test_universe_size_on_paramset():
    assert ParamSet(5, 3, 4).universe_size == 35
    assert ParamSet(4, 12, 18).universe_size == 9_240_426
    assert ParamSet(4, 12, 19).universe_size == 10_891_218
    assert ParamSet(2, 3, 0).universe_size == 1


def test_count_matches_binomial_when_unbounded():
    # with w at the max, the count is just t^n
    for t, n in [(2, 6), (3, 4), (6, 3)]:
        assert count_bounded_words(t, n, n * (t - 1)) == t**n
    # binary words of weight <= w count as sum of binomials
    for n in range(1, 8):
        for w in range(n + 1):
            assert count_bounded_words(2, n, w) == sum(math.comb(n, i) for i in range(w + 1))
