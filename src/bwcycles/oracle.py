"""Brute-force verification: does a cyclic sequence cover a universe exactly once?

This module is the independent referee for every generator in the package. It
never calls the fast constructions or the codec layer; universes are enumerated
from first principles (weight-pruned prefix extension, itertools combinations)
and coverage is checked by slicing every window out of the cyclically extended
cycle and counting. Keep it dumb.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Sequence

__all__ = ["VerifyReport", "verify_universal_cycle", "verify_listing", "enumerate_universe"]

DETAIL_LIMIT = 20


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


def _cycle_fields(cycle, window_len):
    symbols = getattr(cycle, "symbols", None)
    if symbols is None:
        symbols = tuple(cycle)
    else:
        symbols = tuple(symbols)
    if window_len is None:
        window_len = getattr(cycle, "n", None)
    if window_len is None:
        raise ValueError("window_len is required when the cycle carries no window length")
    return symbols, window_len


def _report(seen: Counter, expected: set, window_len: int, total: int,
            full_details: bool) -> VerifyReport:
    # one lookup per distinct word; the universe is scanned only if words are missing
    unexpected = sorted(w for w in seen if w not in expected)
    if len(seen) - len(unexpected) == len(expected):
        missing = []
    else:
        missing = sorted(expected.difference(seen))
    duplicated = sorted((w, c) for w, c in seen.items() if c > 1)
    ok = not missing and not duplicated and not unexpected and total == len(expected)

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
        expected_count=len(expected),
        window_count=total,
        missing=missing,
        duplicated=duplicated,
        unexpected=unexpected,
        truncated=truncated,
    )


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
    expected = set(map(tuple, universe))
    if len(expected) > max_universe:
        raise ValueError(f"universe has {len(expected)} elements, above the cap {max_universe}")
    length = len(symbols)
    if length == 0:
        raise ValueError("cannot verify an empty cycle")

    # repeat the cycle until the window starting at every index fits without wrapping
    ring = symbols * -(-(length + n - 1) // length)
    seen = Counter(map(ring.__getitem__, map(slice, range(length), range(n, length + n))))
    return _report(seen, expected, n, length, full_details)


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
    expected = set(map(tuple, universe))
    if len(expected) > max_universe:
        raise ValueError(f"universe has {len(expected)} elements, above the cap {max_universe}")
    seen = Counter(map(tuple, words))
    window_len = len(next(iter(seen), next(iter(expected), ())))
    return _report(seen, expected, window_len, sum(seen.values()), full_details)


def _weight_bounded(t: int, n: int, w: int) -> list[tuple[int, ...]]:
    """Length-n words over {0..t-1} of weight <= w in lexicographic order, never
    extending a prefix past the bound."""
    heads = [[(a,) for a in range(k)] for k in range(t + 1)]  # heads[k]: the k smallest 1-tuples
    level = [()] if w >= 0 else []
    for _ in range(n):
        level = [p + a for p in level for a in heads[min(t, w - sum(p) + 1)]]
    return level


def enumerate_universe(kind: str, **params) -> list[tuple[int, ...]]:
    """Enumerate an expected window universe from first principles.

    Kinds and their parameters:

    - ``bounded_words``: t, n, w. Length-n words over {0..t-1} of weight <= w.
    - ``fixed_weight_words``: t, length, weight. Words of weight exactly ``weight``.
    - ``subset_diff``: n, k. Difference words of k-subsets of {1..n}: consecutive
      gaps (d1 = s1, di = si - s(i-1)), an alphabet of {1..n-k+1}.
    - ``multiset_freq``: n, k. Truncated frequency words of k-multisets over
      {1..n}: how often each of 1..n-1 occurs (the count of n is implied).
    - ``multiset_diff``: n, k. Difference words of sorted k-multisets:
      d1 = m1 - 1, di = mi - m(i-1), an alphabet of {0..n-1}.
    """
    if kind == "bounded_words":
        return _weight_bounded(params["t"], params["n"], params["w"])
    if kind == "fixed_weight_words":
        t, length, target = params["t"], params["length"], params["weight"]
        return [word for word in _weight_bounded(t, length, target) if sum(word) == target]
    if kind == "subset_diff":
        n, k = params["n"], params["k"]
        out = []
        for subset in combinations(range(1, n + 1), k):
            diffs = (subset[0],) + tuple(subset[i] - subset[i - 1] for i in range(1, k))
            out.append(diffs)
        return out
    if kind == "multiset_freq":
        n, k = params["n"], params["k"]
        out = []
        for multiset in combinations_with_replacement(range(1, n + 1), k):
            counts = Counter(multiset)
            out.append(tuple(counts.get(v, 0) for v in range(1, n)))
        return out
    if kind == "multiset_diff":
        n, k = params["n"], params["k"]
        out = []
        for multiset in combinations_with_replacement(range(1, n + 1), k):
            diffs = (multiset[0] - 1,) + tuple(
                multiset[i] - multiset[i - 1] for i in range(1, k)
            )
            out.append(diffs)
        return out
    raise ValueError(f"unknown universe kind {kind!r}")
