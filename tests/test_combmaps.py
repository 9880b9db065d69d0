import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from bwcycles.combmaps import (
    ENCODINGS,
    CombObject,
    SCHEME_MULTISET_DIFF,
    SCHEME_MULTISET_FREQ,
    decode_window,
    diff_to_multiset,
    diff_to_subset,
    engine_chunks,
    fixed_weight_expand,
    fixed_weight_size,
    freq_to_multiset,
    multiset_to_diff,
    multiset_to_freq,
    subset_to_diff,
    ucycle_multisets_diff,
    ucycle_multisets_freq,
    ucycle_subsets,
)
from bwcycles.grandmama import UCycle, generate_concat
from bwcycles.msr import generate_msr, iter_msr_chunks
from bwcycles.oracle import enumerate_universe, verify_universal_cycle
from bwcycles.words import ParamSet, Word


def subsets(n, k):
    return [CombObject("subset", n, k, c) for c in itertools.combinations(range(1, n + 1), k)]


def multisets(n, k):
    return [
        CombObject("multiset", n, k, c)
        for c in itertools.combinations_with_replacement(range(1, n + 1), k)
    ]


# --- string codecs -------------------------------------------------------


def test_subset_diff_examples():
    assert str(subset_to_diff(CombObject("subset", 5, 3, (1, 3, 4)))) == "121"
    assert str(subset_to_diff(CombObject("subset", 5, 3, (1, 2, 3)))) == "111"
    assert str(subset_to_diff(CombObject("subset", 5, 3, (3, 4, 5)))) == "311"


def test_subset_diff_full_table_n5_k3():
    reps = {str(subset_to_diff(s)) for s in subsets(5, 3)}
    assert reps == {"111", "112", "113", "121", "122", "131", "211", "212", "221", "311"}


def test_multiset_freq_examples():
    assert str(multiset_to_freq(CombObject("multiset", 3, 3, (1, 1, 1)))) == "30"
    assert str(multiset_to_freq(CombObject("multiset", 3, 3, (3, 3, 3)))) == "00"
    assert str(multiset_to_freq(CombObject("multiset", 3, 2, (1, 2)))) == "11"


def test_multiset_diff_examples():
    assert str(multiset_to_diff(CombObject("multiset", 3, 3, (1, 1, 2)))) == "001"
    assert str(multiset_to_diff(CombObject("multiset", 3, 3, (2, 2, 3)))) == "101"
    assert str(multiset_to_diff(CombObject("multiset", 3, 3, (3, 3, 3)))) == "200"


def test_round_trips_exhaustive_subsets():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for s in subsets(n, k):
                assert diff_to_subset(subset_to_diff(s), n) == s


def test_round_trips_exhaustive_multisets():
    for n in range(2, 8):
        for k in range(1, 8):
            for m in multisets(n, k):
                assert freq_to_multiset(multiset_to_freq(m), k) == m
                assert diff_to_multiset(multiset_to_diff(m), n) == m


def test_codec_rejects():
    with pytest.raises(ValueError):
        subset_to_diff(CombObject("multiset", 3, 2, (1, 1)))
    with pytest.raises(ValueError):
        multiset_to_freq(CombObject("subset", 3, 2, (1, 2)))
    with pytest.raises(ValueError):
        diff_to_subset((1, 0, 1), 5)  # zero gap
    with pytest.raises(ValueError):
        diff_to_subset((3, 3), 5)  # runs past the ground set
    with pytest.raises(ValueError):
        freq_to_multiset((2, 2), 3)  # total count above k
    with pytest.raises(ValueError):
        diff_to_multiset((2, 1), 3)  # reaches 4 > n
    with pytest.raises(ValueError):
        diff_to_subset((), 4)


def _explicit_diff_to_subset(diffs, n):
    """The decoder's former checks, spelled out: the reference for what it rejects."""
    if not diffs:
        raise ValueError("empty difference word")
    total, elements = 0, []
    for d in diffs:
        if d < 1:
            raise ValueError(f"difference symbols must be positive, got {d}")
        total += d
        if total > n:
            raise ValueError(f"partial sums exceed the ground set bound {n}")
        elements.append(total)
    return CombObject("subset", n, len(diffs), tuple(elements))


def _explicit_diff_to_multiset(diffs, n):
    if not diffs:
        raise ValueError("empty difference word")
    if any(d < 0 for d in diffs):
        raise ValueError("multiset difference symbols cannot be negative")
    elements = [diffs[0] + 1]
    for d in diffs[1:]:
        elements.append(elements[-1] + d)
    if elements[-1] > n:
        raise ValueError(f"differences reach {elements[-1]}, outside the ground set 1..{n}")
    return CombObject("multiset", n, len(diffs), tuple(elements))


def _explicit_freq_to_multiset(freqs, k):
    n = len(freqs) + 1
    if any(f < 0 for f in freqs):
        raise ValueError("frequencies cannot be negative")
    if sum(freqs) > k:
        raise ValueError(f"frequencies sum to {sum(freqs)}, above k={k}")
    elements = [value for value, f in enumerate(freqs, start=1) for _ in range(f)]
    return CombObject("multiset", n, k, tuple(elements) + (n,) * (k - sum(freqs)))


def _outcome(decode, diffs, n):
    try:
        return decode(diffs, n)
    except ValueError:
        return "rejected"


def test_diff_decoders_reject_exactly_what_the_explicit_rules_reject():
    # 7 ground sizes (k for the frequency decoder) x 11,111 words of length <= 4
    # over -2..7: 77,777 inputs each
    rejected = 0
    for n in range(7):
        for k in range(5):
            for diffs in itertools.product(range(-2, 8), repeat=k):
                for new, old in ((diff_to_subset, _explicit_diff_to_subset),
                                 (diff_to_multiset, _explicit_diff_to_multiset),
                                 (freq_to_multiset, _explicit_freq_to_multiset)):
                    got = _outcome(new, diffs, n)
                    assert got == _outcome(old, diffs, n), (new.__name__, diffs, n)
                    rejected += got == "rejected"
    assert 0 < rejected < 3 * 77_777
    # a huge frequency is refused without building its run
    with pytest.raises(ValueError, match="expected 2 elements, got 3"):
        freq_to_multiset((10**12, 0), 2)


def test_comb_object_validation():
    with pytest.raises(ValueError):
        CombObject("subset", 4, 2, (2, 2))
    with pytest.raises(ValueError):
        CombObject("multiset", 4, 2, (3, 1))
    with pytest.raises(ValueError):
        CombObject("subset", 3, 4, (1, 2, 3, 3))
    with pytest.raises(ValueError):
        CombObject("thing", 3, 1, (1,))
    assert CombObject("multiset", 4, 3, [2, 2, 4]).to_dict() == {
        "kind": "multiset",
        "n": 4,
        "k": 3,
        "elements": [2, 2, 4],
    }


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 7))))
def test_multiset_round_trip_random(nk):
    n, k = nk
    for m in itertools.islice(multisets(n, k), 0, None, max(1, comb(n + k - 1, k) // 8)):
        assert freq_to_multiset(multiset_to_freq(m), k) == m
        assert diff_to_multiset(multiset_to_diff(m), n) == m


# --- subset universal cycles ---------------------------------------------


def test_ucycle_subsets_6_3_goldens():
    assert str(ucycle_subsets(6, 3, "grandmama")) == "11121222132113123114"
    assert str(ucycle_subsets(6, 3, "msr")) == "11141123121311321222"


def test_ucycle_subsets_5_3_golden():
    assert str(ucycle_subsets(5, 3, "grandmama")) == "1112122113"


def test_ucycle_subsets_decodes_every_subset():
    for n, k, engine in [(6, 3, "grandmama"), (6, 3, "msr"), (7, 4, "grandmama"), (5, 2, "msr")]:
        cyc = ucycle_subsets(n, k, engine)
        assert len(cyc) == comb(n, k)
        seen = {decode_window(cyc, i).elements for i in range(len(cyc))}
        assert seen == set(itertools.combinations(range(1, n + 1), k))


def test_ucycle_subsets_matches_oracle_universe():
    for engine in ("grandmama", "msr", "reverse-colex"):
        cyc = ucycle_subsets(6, 3, engine)
        report = verify_universal_cycle(cyc, enumerate_universe("subset_diff", n=6, k=3))
        assert report.ok, report.to_dict()
    freq = ucycle_multisets_freq(4, 4, "msr")
    assert verify_universal_cycle(freq, enumerate_universe("multiset_freq", n=4, k=4)).ok
    diff = ucycle_multisets_diff(4, 4, "reverse-colex")
    assert verify_universal_cycle(diff, enumerate_universe("multiset_diff", n=4, k=4)).ok


def test_ucycle_subsets_k_equals_n():
    cyc = ucycle_subsets(4, 4)
    assert len(cyc) == 1
    assert cyc.window(0) == (1, 1, 1, 1)
    assert decode_window(cyc, 0).elements == (1, 2, 3, 4)


def test_ucycle_subsets_bad_args():
    with pytest.raises(ValueError):
        ucycle_subsets(3, 4)
    with pytest.raises(ValueError):
        ucycle_subsets(3, 0)
    with pytest.raises(ValueError):
        ucycle_subsets(6, 3, engine="colex")
    with pytest.raises(ValueError, match="no start window"):
        engine_chunks(ParamSet(3, 2, 2), "reverse-colex", start=(0, 0))


def test_unseeded_msr_dispatch_emits_the_h2_bytes():
    # unseeded msr streams the reverse-colex walk; it must emit exactly h2's symbols
    cells = 0
    for t in range(1, 9):
        for n in range(1, 7):
            if t ** (n + 1) > 10**6:
                continue
            for w in range(t):
                p = ParamSet(t, n, w)
                tag, chunks = engine_chunks(p, "msr")
                assert tag == "msr"
                assert list(itertools.chain.from_iterable(chunks)) == list(
                    itertools.chain.from_iterable(iter_msr_chunks(p))), p
                cells += 1
    assert cells == 208
    # the w >= t refusal is h2's, word for word
    for p in (ParamSet(3, 2, 3), ParamSet(4, 3, 5)):
        with pytest.raises(ValueError) as expected:
            iter_msr_chunks(p)
        with pytest.raises(ValueError) as got:
            engine_chunks(p, "msr")
        assert str(got.value) == str(expected.value)


# --- multiset universal cycles -------------------------------------------


def test_ucycle_multisets_freq_4_4_is_the_5_3_4_cell():
    assert ucycle_multisets_freq(4, 4, "grandmama").symbols == generate_concat(
        ParamSet(5, 3, 4)
    ).symbols
    assert ucycle_multisets_freq(4, 4, "msr").symbols == generate_msr(ParamSet(5, 3, 4)).symbols


def test_ucycle_multisets_diff_4_4_is_the_4_4_3_cell():
    assert ucycle_multisets_diff(4, 4, "grandmama").symbols == generate_concat(
        ParamSet(4, 4, 3)
    ).symbols
    assert ucycle_multisets_diff(4, 4, "msr").symbols == generate_msr(ParamSet(4, 4, 3)).symbols


def test_ucycle_multisets_decode_exhaustive():
    for n, k, maker in [
        (3, 3, ucycle_multisets_freq),
        (4, 4, ucycle_multisets_freq),
        (3, 3, ucycle_multisets_diff),
        (5, 3, ucycle_multisets_diff),
    ]:
        cyc = maker(n, k)
        assert len(cyc) == comb(n + k - 1, k)
        seen = [decode_window(cyc, i).elements for i in range(len(cyc))]
        assert len(set(seen)) == len(seen)
        assert set(seen) == set(itertools.combinations_with_replacement(range(1, n + 1), k))


def test_ucycle_multisets_guard():
    with pytest.raises(ValueError):
        ucycle_multisets_freq(3, 1)
    with pytest.raises(ValueError):
        ucycle_multisets_diff(1, 3)
    # frequency words have length n-1, so n = 1 can never work
    with pytest.raises(ValueError):
        ucycle_multisets_freq(1, 3)
    # the library refuses with the CLI's message
    with pytest.raises(ValueError, match=r"^multiset cycles assume n, k >= 2, got n=3 k=1$"):
        ucycle_multisets_freq(3, 1)


def test_encoding_table_matches_oracle():
    for kind, enc in ENCODINGS.items():
        accepted = 0
        for n in range(-1, 9):
            for k in range(-1, 9):
                if not enc.accepts(n, k):
                    with pytest.raises(ValueError, match=f"got n={n} k={k}$"):
                        enc.params(n, k)
                    continue
                accepted += 1
                universe = enumerate_universe(enc.universe, n=n, k=k)
                cell = enc.params(n, k)
                assert enc.length(n, k) == len(universe) == cell.universe_size, (kind, n, k)
                # the shifted cell universe is the oracle's universe, word for word
                words = enumerate_universe("bounded_words", t=cell.t, n=cell.n, w=cell.w_eff)
                shifted = {tuple(s + enc.shift for s in word) for word in words}
                assert shifted == set(universe), (kind, n, k)
        assert accepted >= 28, kind


def test_decode_window_examples():
    s1 = ucycle_subsets(6, 3)
    assert decode_window(s1, 0).elements == (1, 2, 3)
    freq = ucycle_multisets_freq(4, 4)
    assert decode_window(freq, 0).elements == (4, 4, 4, 4)
    diff = ucycle_multisets_diff(4, 4)
    assert decode_window(diff, 0).elements == (1, 1, 1, 1)
    plain = generate_concat(ParamSet(3, 3, 2))
    w = decode_window(plain, 3)
    assert isinstance(w, Word)
    assert w.symbols == plain.window(3)
    with pytest.raises(ValueError):
        decode_window(s1, len(s1))
    with pytest.raises(ValueError):
        decode_window(s1, -1)


# --- fixed-weight expansion ----------------------------------------------


def test_fixed_weight_expand_w_equals_t():
    words = fixed_weight_expand(generate_concat(ParamSet(3, 2, 3)))
    assert words == [
        (0, 1, 2),
        (1, 1, 1),
        (1, 0, 2),
        (0, 2, 1),
        (2, 1, 0),
        (1, 2, 0),
        (2, 0, 1),
    ]
    assert set(words) == set(enumerate_universe("fixed_weight_words", t=3, length=3, weight=3))
    # the collapse needs an all-zero window to drop a symbol from
    with pytest.raises(ValueError, match="w = t expansion needs the all-zero window in the cycle"):
        fixed_weight_expand(UCycle((0, 1, 1, 2), ParamSet(3, 2, 3), "user"))


def test_fixed_weight_expand_small_binary():
    assert fixed_weight_expand(generate_concat(ParamSet(2, 2, 2))) == [
        (0, 1, 1),
        (1, 1, 0),
        (1, 0, 1),
    ]


def test_fixed_weight_expand_covers_universe():
    for params in [ParamSet(4, 3, 3), ParamSet(5, 4, 2), ParamSet(3, 4, 3), ParamSet(4, 2, 4)]:
        expected = set(
            enumerate_universe(
                "fixed_weight_words", t=params.t, length=params.n + 1, weight=params.w_eff
            )
        )
        for cycle in (generate_concat(params), generate_msr(params)) if params.w_eff < params.t else (
            generate_concat(params),
        ):
            words = fixed_weight_expand(cycle)
            assert len(words) == len(set(words)) == len(expected)
            assert set(words) == expected


def test_fixed_weight_expand_weight_zero():
    assert fixed_weight_expand(generate_concat(ParamSet(4, 3, 0))) == [(0, 0, 0, 0)]


def test_fixed_weight_size_guard_and_count():
    for t in range(1, 6):
        for n in range(1, 5):
            for w in range(n * (t - 1) + 2):
                params = ParamSet(t, n, w)
                if params.w_eff > t:
                    with pytest.raises(ValueError, match="fixed-weight expansion needs w <= t"):
                        fixed_weight_size(params)
                    continue
                universe = enumerate_universe("fixed_weight_words", t=t, length=n + 1,
                                              weight=params.w_eff)
                assert fixed_weight_size(params) == len(universe), params


def _reference_fixed_weight_expand(cycle):
    """The per-window listing ``fixed_weight_expand`` had before it read ``UCycle.windows``."""
    fixed_weight_size(cycle.params)
    t, n, w = cycle.t, cycle.n, cycle.w
    symbols = list(cycle.symbols)
    if w == t:
        zero = (0,) * n
        spot = next((i for i in range(len(symbols)) if cycle.window(i) == zero), None)
        if spot is None:
            raise ValueError("w = t expansion needs the all-zero window in the cycle")
        del symbols[spot]
    L = len(symbols)
    out = []
    for i in range(L):
        win = tuple(symbols[(i + d) % L] for d in range(n))
        out.append(win + (w - sum(win),))
    return out


def _listing(cycle):
    try:
        return fixed_weight_expand(cycle)
    except ValueError as exc:
        return str(exc)


def test_fixed_weight_expand_matches_reference_on_every_rotation():
    for t in range(2, 6):
        for n in range(2, 6):
            p = ParamSet(t, n, t)
            if p.w_eff != t:
                continue
            symbols = generate_concat(p).symbols
            # with no zero, no window is all zero: the collapse is refused
            no_zero = UCycle(tuple(s or 1 for s in symbols), p, "user")
            assert _listing(no_zero) == "w = t expansion needs the all-zero window in the cycle"
            with pytest.raises(ValueError, match="needs the all-zero window"):
                _reference_fixed_weight_expand(no_zero)
            # the cycle opens with its run of n zeros, so rotations 1..n-1 wrap it
            for k in range(len(symbols)):
                cycle = UCycle(symbols[k:] + symbols[:k], p, "user")
                assert _listing(cycle) == _reference_fixed_weight_expand(cycle), (t, n, k)


def test_fixed_weight_expand_rejects():
    with pytest.raises(ValueError, match="needs w <= t, got w=4 t=3"):
        fixed_weight_expand(generate_concat(ParamSet(3, 3, 4)))  # w > t
    with pytest.raises(ValueError):
        fixed_weight_expand(ucycle_subsets(5, 3))  # scheme-tagged
