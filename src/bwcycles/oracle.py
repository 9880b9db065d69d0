"""Brute-force verification: does a cyclic sequence cover a universe exactly once?

This module is the independent referee for every generator in the package. It
never calls the fast constructions or the codec layer. Universes come from one
table of kinds, ``_KINDS``, that gives each kind's word length, closed-form size
and words (from ``words.words_iter`` or itertools combinations), and coverage is
checked by counting every window.

A window of n symbols from {0..t-1} is counted under its base-t code, which
one rolling update per symbol keeps current, so the cycle is read as a stream
of chunks and never held: only its first n-1 symbols are kept, to be read again
for the windows that wrap around. Counts go into a bytearray with one byte per
code, or into a dict when t**n is far above the universe size. A window holding
a symbol outside the alphabet has no code and is counted under its word. Codes
are turned back into words only for the report. Keep it dumb.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, combinations, combinations_with_replacement, cycle, islice
from math import comb
from operator import mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from bwcycles.words import words_iter

__all__ = ["VerifyReport", "verify_universal_cycle", "verify_stream", "verify_listing",
           "enumerate_universe"]

DETAIL_LIMIT = 20

# symbols per counting pass: each pass makes one range check, and memory stays small
BATCH = 1 << 16

# Counts live in a bytearray (one byte per code, beside the universe's one byte
# per code) unless t**n exceeds DENSE_RATIO times the universe size. A dict entry
# with its int key costs about 85 bytes in each of the two dicts, so below that
# ratio the arrays are no larger, and they are faster.
DENSE_RATIO = 64

_SEEN = bytes([0] + [1] * 255)  # translate table: any count -> 0 or 1


@dataclass
class VerifyReport:
    """Outcome of a sliding-window coverage check, JSON-friendly via to_dict()."""

    ok: bool
    window_len: int
    cycle_len: int
    expected_count: int
    window_count: int
    missing: list[tuple[int, ...]] = field(default_factory=list)
    duplicated: list[tuple[tuple[int, ...], int]] = field(default_factory=list)
    unexpected: list[tuple[int, ...]] = field(default_factory=list)
    truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "window_len": self.window_len,
            "cycle_len": self.cycle_len,
            "expected_count": self.expected_count,
            "window_count": self.window_count,
            "missing": [list(w) for w in self.missing],
            "duplicated": [{"word": list(w), "count": c} for w, c in self.duplicated],
            "unexpected": [list(w) for w in self.unexpected],
            "truncated": self.truncated,
        }


@dataclass
class _Coded:
    """A universe of length-n words as base-t codes."""

    t: int
    n: int
    marks: bytes | bytearray | dict[int, int]  # 1 at each word's code
    size: int  # words with a code
    stray: set[tuple[int, ...]] = field(default_factory=set)  # words no window can code


def _word(code: int, t: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        code, s = divmod(code, t)
        digits.append(s)
    return tuple(reversed(digits))


def _dense(t: int, n: int, size: int) -> bool:
    return t ** n <= DENSE_RATIO * size


def _coded(words: set[tuple[int, ...]], n: int) -> _Coded:
    """Code a set of words over the alphabet {0..max symbol}.

    Words of another length or with a negative symbol are kept aside as ``stray``.
    """
    fit, stray = words, set()
    symbols = set(chain.from_iterable(words))
    if min(symbols, default=0) < 0 or set(map(len, words)) - {n}:
        stray = {w for w in words if len(w) != n or min(w, default=0) < 0}
        fit = words - stray
        symbols = set(chain.from_iterable(fit))
    t = 1 + max(symbols, default=0)
    place = [t ** i for i in reversed(range(n))]
    codes = [sum(map(mul, w, place)) for w in fit]
    if _dense(t, n, len(codes)):
        marks = bytearray(t ** n)
        for code in codes:
            marks[code] = 1
    else:
        marks = dict.fromkeys(codes, 1)
    return _Coded(t, n, marks, len(codes), stray)


def _weight_fold(t: int, n: int, w: int, one, zero, join):
    """Fold over length-n words of weight <= w by their first symbol:
    f(k, r) = join(f(k-1, r-a) for a in 0..t-1), f(0, r >= 0) = one, f(k, r < 0) = zero(k)."""
    memo = {}

    def fold(k, r):
        key = (k, max(r, -1))
        if key not in memo:
            if r < 0:
                memo[key] = zero(k)
            elif k == 0:
                memo[key] = one
            else:
                memo[key] = join(fold(k - 1, r - a) for a in range(t))
        return memo[key]

    return fold(n, w)


def _bounded_marks(t: int, n: int, w: int) -> bytes:
    """A byte per code of a length-n word over {0..t-1}: 1 where its weight is <= w.

    The codes that start with symbol a form one block, the marks of the rest at w - a.
    """
    return _weight_fold(t, n, w, b"\x01", lambda k: bytes(t ** k), b"".join)


def _bounded_codes(t: int, n: int, w: int) -> list[int]:
    """Codes of the length-n words over {0..t-1} of weight <= w: the marks' sparse twin.

    Prefixes are grouped by weight and extended a symbol at a time, never past w.
    """
    w = min(w, n * (t - 1))
    level = [[0]] + [[] for _ in range(w)] if w >= 0 else []  # level[r]: prefixes of weight r
    for _ in range(n):
        grown = [[] for _ in level]
        for r, codes in enumerate(level):
            for a in range(min(t, w - r + 1)):
                grown[r + a] += [c * t + a for c in codes]
        level = grown
    return list(chain.from_iterable(level))


def _check_cap(size: int, max_universe: int) -> None:
    if size > max_universe:
        raise ValueError(f"universe has {size} elements, above the cap {max_universe}")


def _capped_set(universe: Iterable[Sequence[int]], max_universe: int) -> set:
    """The universe as a set of tuples, refused as soon as it holds more than
    ``max_universe`` words: past its duplicates, at most ``max_universe`` + 1
    words are read, so an oversized universe is never enumerated in full."""
    words = map(tuple, universe)
    expected: set = set()
    while True:
        room = max(max_universe + 1 - len(expected), 0)
        batch = list(islice(words, room))
        expected.update(batch)
        if len(expected) > max_universe:
            raise ValueError(
                f"universe has more than {max_universe} elements, above the cap {max_universe}")
        if len(batch) < room:
            return expected


def _bounded_size(t: int, n: int, w: int) -> int:
    return _weight_fold(t, n, w, 1, lambda k: 0, sum)


def _named(kind: str, params: dict, max_universe: int) -> _Coded:
    """The coded universe of an ``enumerate_universe`` kind, refused above the cap
    by its closed-form size before a word is enumerated."""
    length, size, words, coded = _kind(kind)
    size = size(params)
    _check_cap(size, max_universe)
    if coded:
        return coded(params, size)
    return _coded(set(words(params)), length(params))


def _batches(chunks: Iterable[Sequence[int]], warm: int) -> Iterator[list[int]]:
    """The cycle's first ``warm`` symbols, the rest in batches of BATCH, then the
    first ``warm`` symbols again, going round as often as a short cycle needs."""
    symbols = chain.from_iterable(chunks)
    head = list(islice(symbols, warm))
    yield head
    while batch := list(islice(symbols, BATCH)):
        yield batch
    yield list(islice(cycle(head), warm))


def _tally(chunks: Iterable[Sequence[int]], t: int, n: int, counts):
    """Count every cyclic window of the chunked cycle into ``counts`` by its code.

    ``counts`` saturates at 2; ``extra`` holds each code's occurrences past the
    second. Windows holding a symbol outside {0..t-1} go to ``foreign`` by word.
    Returns (windows, extra, foreign).
    """
    modulus = t ** n
    warm = max(n - 1, 0)
    extra: defaultdict[int, int] = defaultdict(int)
    foreign: Counter = Counter()
    code = fed = 0
    last_bad = -n  # position of the latest symbol outside the alphabet
    prev: list[int] = []  # the last symbols before the batch, up to n-1 of them
    for batch in _batches(chunks, warm):
        if fed >= warm and fed - last_bad >= n and min(batch, default=0) >= 0 \
                and max(batch, default=0) < t:
            for s in batch:
                code = (code * t + s) % modulus
                m = counts[code]
                if m < 2:
                    counts[code] = m + 1
                else:
                    extra[code] += 1
        else:
            # warm-up, or windows near a foreign symbol: one test per symbol
            seq = prev + batch
            for i, s in enumerate(batch, fed):
                code = (code * t + s) % modulus
                if not 0 <= s < t:
                    last_bad = i
                if i < warm:
                    continue
                if i - last_bad < n:
                    end = i - fed + len(prev) + 1
                    foreign[tuple(seq[end - n:end])] += 1
                else:
                    m = counts[code]
                    if m < 2:
                        counts[code] = m + 1
                    else:
                        extra[code] += 1
        fed += len(batch)
        if warm:
            prev = (prev + batch[-warm:])[-warm:]
    if not fed:
        raise ValueError("cannot verify an empty cycle")
    return fed - warm, extra, foreign


def _positions(buf: bytes | bytearray, value: int) -> Iterator[int]:
    i = buf.find(value)
    while i >= 0:
        yield i
        i = buf.find(value, i + 1)


def _word_lists(seen: dict, expected: set) -> tuple[list, list, list]:
    """(missing, duplicated, unexpected) of words counted in ``seen``, all sorted."""
    unexpected = sorted(w for w in seen if w not in expected)
    # one lookup per distinct word; the universe is scanned only if words are missing
    if len(seen) - len(unexpected) == len(expected):
        missing = []
    else:
        missing = sorted(expected.difference(seen))
    duplicated = sorted((w, c) for w, c in seen.items() if c > 1)
    return missing, duplicated, unexpected


def _report(missing: list, duplicated: list, unexpected: list, window_len: int, total: int,
            expected_count: int, full_details: bool) -> VerifyReport:
    ok = not missing and not duplicated and not unexpected and total == expected_count
    truncated = False
    if not full_details:
        if len(missing) > DETAIL_LIMIT or len(duplicated) > DETAIL_LIMIT or len(unexpected) > DETAIL_LIMIT:
            truncated = True
        missing = missing[:DETAIL_LIMIT]
        duplicated = duplicated[:DETAIL_LIMIT]
        unexpected = unexpected[:DETAIL_LIMIT]

    return VerifyReport(
        ok=ok,
        window_len=window_len,
        cycle_len=total,
        expected_count=expected_count,
        window_count=total,
        missing=missing,
        duplicated=duplicated,
        unexpected=unexpected,
        truncated=truncated,
    )


def _verify(chunks: Iterable[Sequence[int]], universe: _Coded, full_details: bool) -> VerifyReport:
    """The one counting core: stream the chunks against a coded universe."""
    t, n, marks = universe.t, universe.n, universe.marks
    dense = not isinstance(marks, dict)
    counts = bytearray(t ** n) if dense else defaultdict(int)
    total, extra, foreign = _tally(chunks, t, n, counts)
    expected_count = universe.size + len(universe.stray)
    if counts == marks and not foreign and not universe.stray:
        # every coded word seen once and nothing else: a universal cycle
        return _report([], [], [], n, total, expected_count, full_details)

    if dense:
        # each array read as one big integer: a bitwise step per list, then C-level scans
        seen = int.from_bytes(counts.translate(_SEEN), "big")
        want = int.from_bytes(marks, "big")
        both = seen & want
        missing = _positions((want ^ both).to_bytes(t ** n, "big"), 1)
        unexpected = _positions((seen ^ both).to_bytes(t ** n, "big"), 1)
        duplicated = _positions(counts, 2)
    else:
        missing = sorted(c for c in marks if c not in counts)
        unexpected = sorted(c for c in counts if c not in marks)
        duplicated = sorted(c for c, m in counts.items() if m == 2)
    # codes come in increasing order, which is the words' order; one past the
    # detail limit is enough to merge with the foreign words and flag truncation
    take = None if full_details else DETAIL_LIMIT + 1
    lost, twice, stranger = _word_lists(foreign, universe.stray)
    return _report(
        sorted(chain((_word(c, t, n) for c in islice(missing, take)), lost)),
        sorted(chain(((_word(c, t, n), 2 + extra.get(c, 0)) for c in islice(duplicated, take)),
                     twice)),
        sorted(chain((_word(c, t, n) for c in islice(unexpected, take)), stranger)),
        n, total, expected_count, full_details)


def _cycle_fields(cycle, window_len):
    if window_len is None:
        window_len = getattr(cycle, "n", None)
    if window_len is None:
        raise ValueError("window_len is required when the cycle carries no window length")
    return getattr(cycle, "symbols", cycle), window_len


def verify_universal_cycle(
    cycle,
    universe: Iterable[Sequence[int]],
    *,
    window_len: int | None = None,
    max_universe: int = 10**6,
    full_details: bool = False,
) -> VerifyReport:
    """Check that every universe element appears exactly once as a cyclic window.

    ``cycle`` may be a plain int sequence (pass ``window_len``) or any object with
    ``symbols`` and ``n`` attributes. The cycle is read cyclically, so a cycle
    shorter than the window is legal (the window wraps several times); that is
    how the single-word degenerate universes come out.

    Detail lists (missing / duplicated / unexpected) are truncated to 20 entries
    unless ``full_details`` is set; ``truncated`` reports whether anything was cut.
    Universes larger than ``max_universe`` are refused.
    """
    symbols, n = _cycle_fields(cycle, window_len)
    expected = _capped_set(universe, max_universe)
    return _verify((symbols,), _coded(expected, n), full_details)


def verify_stream(
    chunks: Iterable[Sequence[int]],
    kind: str,
    *,
    max_universe: int = 10**6,
    full_details: bool = False,
    **params,
) -> VerifyReport:
    """``verify_universal_cycle`` for a cycle read as chunks, against the universe
    ``enumerate_universe(kind, **params)``, whose word length is the window length.

    Only the first n-1 symbols of the cycle are held. The universe is refused
    above ``max_universe`` before any chunk is read.
    """
    return _verify(chunks, _named(kind, params, max_universe), full_details)


def verify_listing(
    words: Iterable[Sequence[int]],
    universe: Iterable[Sequence[int]],
    *,
    max_universe: int = 10**6,
    full_details: bool = False,
) -> VerifyReport:
    """Check that a flat listing of words covers a universe exactly once.

    Same report shape as the window check, but nothing slides: ``words`` is
    taken as-is (the fixed-weight expansion of a cycle, for instance) and
    compared against the universe as a multiset.
    """
    expected = _capped_set(universe, max_universe)
    seen = Counter(map(tuple, words))
    window_len = len(next(iter(seen), next(iter(expected), ())))
    return _report(*_word_lists(seen, expected), window_len, sum(seen.values()), len(expected),
                   full_details)


def _diff_k(p: dict) -> int:
    """k of a difference-word kind, whose first symbol needs an element."""
    if p["k"] < 1:
        raise ValueError(f"difference words need k >= 1, got n={p['n']} k={p['k']}")
    return p["k"]


def _fixed_weight_size(p: dict) -> int:
    t, n, w = p["t"], p["length"], p["weight"]
    return _bounded_size(t, n, w) - _bounded_size(t, n, w - 1)


def _diffs(combos: Callable, first: int) -> Callable[[dict], Iterator[tuple[int, ...]]]:
    """Difference words of the sorted k-tuples ``combos`` draws from {1..n}: each
    element's gap to the one before it, with ``first`` before the first."""
    return lambda p: (tuple(map(sub, c, (first, *c[:-1])))
                      for c in combos(range(1, p["n"] + 1), _diff_k(p)))


def _bounded_coded(p: dict, size: int) -> _Coded:
    t, n, w = p["t"], p["n"], p["w"]
    if _dense(t, n, size):
        return _Coded(t, n, _bounded_marks(t, n, w), size)
    return _Coded(t, n, dict.fromkeys(_bounded_codes(t, n, w), 1), size)


# Each kind's (word length, closed-form size, words in order, and for bounded
# words their coding straight from the weights), from its parameters p.
_KINDS = {
    "bounded_words": (lambda p: p["n"], lambda p: _bounded_size(p["t"], p["n"], p["w"]),
                      lambda p: words_iter(p["t"], p["n"], p["w"]), _bounded_coded),
    "fixed_weight_words": (lambda p: p["length"], _fixed_weight_size,
                           lambda p: (x for x in words_iter(p["t"], p["length"], p["weight"])
                                      if sum(x) == p["weight"]), None),
    "subset_diff": (_diff_k, lambda p: comb(p["n"], _diff_k(p)), _diffs(combinations, 0), None),
    "multiset_freq": (lambda p: p["n"] - 1, lambda p: comb(p["n"] + p["k"] - 1, p["k"]),
                      lambda p: (tuple(map(m.count, range(1, p["n"]))) for m in
                                 combinations_with_replacement(range(1, p["n"] + 1), p["k"])),
                      None),
    "multiset_diff": (_diff_k, lambda p: comb(p["n"] + _diff_k(p) - 1, p["k"]),
                      _diffs(combinations_with_replacement, 1), None),
}


def _kind(kind: str) -> tuple:
    if kind not in _KINDS:
        raise ValueError(f"unknown universe kind {kind!r}")
    return _KINDS[kind]


def enumerate_universe(kind: str, **params) -> list[tuple[int, ...]]:
    """Enumerate an expected window universe from first principles.

    Kinds and their parameters:

    - ``bounded_words``: t, n, w. Length-n words over {0..t-1} of weight <= w.
    - ``fixed_weight_words``: t, length, weight. Words of weight exactly ``weight``.
    - ``subset_diff``: n, k >= 1. Difference words of k-subsets of {1..n}: consecutive
      gaps (d1 = s1, di = si - s(i-1)), an alphabet of {1..n-k+1}.
    - ``multiset_freq``: n, k. Truncated frequency words of k-multisets over
      {1..n}: how often each of 1..n-1 occurs (the count of n is implied).
    - ``multiset_diff``: n, k >= 1. Difference words of sorted k-multisets:
      d1 = m1 - 1, di = mi - m(i-1), an alphabet of {0..n-1}.
    """
    _, _, words, _ = _kind(kind)
    return list(words(params))
