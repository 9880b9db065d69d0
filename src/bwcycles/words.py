"""Core vocabulary: fixed-length words over {0..t-1}, weights, colex order, necklaces.

A word is a fixed-length string of symbols drawn from {0, 1, ..., t-1}; its weight
is the sum of its symbols. A necklace is a word that is lexicographically minimal
among its rotations. Everything downstream (cycle-joining trees, the concatenation
and successor-rule generators, the subset/multiset codecs) is built on the helpers
in this module.

Most functions accept either a ``Word`` or any sequence of ints; internally all the
hot paths work on plain tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

__all__ = [
    "Word",
    "ParamSet",
    "NecklaceInfo",
    "weight",
    "colex_less",
    "necklace_info",
    "enumerate_bounded_necklaces",
    "count_bounded_words",
    "parse_symbols",
]


def _render(symbols: Sequence[int]) -> str:
    """Digits run together when every symbol is a single digit, else comma-separated."""
    sep = "" if all(s < 10 for s in symbols) else ","
    return sep.join(map(str, symbols))


def parse_symbols(text: str) -> tuple[int, ...]:
    """The one reader of symbol text: comma/space separated ints or bare digits."""
    text = text.strip()
    if "," in text or " " in text:
        parts = [p for p in text.replace(",", " ").split() if p]
    elif text.isdigit():
        parts = list(text)
    else:
        raise ValueError(f"cannot parse symbols from {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse symbols from {text!r}") from None


def _symbols(word: "Word | Sequence[int]") -> tuple[int, ...]:
    """Normalize a Word or any int sequence to a plain tuple of ints."""
    if isinstance(word, Word):
        return word.symbols
    return tuple(word)


@dataclass(frozen=True)
class Word:
    """An immutable word over the alphabet {0..t-1}.

    ``symbols`` holds the word left to right. Validation rejects out-of-range
    symbols at construction time so downstream code never has to re-check.
    """

    symbols: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.t}")
        object.__setattr__(self, "symbols", tuple(self.symbols))
        for s in self.symbols:
            if not isinstance(s, int) or not 0 <= s < self.t:
                raise ValueError(f"symbol {s!r} out of range for alphabet size {self.t}")

    @classmethod
    def from_string(cls, text: str, t: int) -> "Word":
        """Read ``text`` with ``parse_symbols``: "0013", "0,0,1,3" and "0 0 1 3" agree."""
        return cls(parse_symbols(text), t)

    @property
    def weight(self) -> int:
        return sum(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __str__(self) -> str:
        return _render(self.symbols)


@dataclass(frozen=True)
class ParamSet:
    """Parameters (t, n, w): alphabet size, word length, weight ceiling.

    The effective ceiling ``w_eff`` is min(w, n*(t-1)); a requested w above the
    maximum possible weight is clamped, not rejected, and ``clamped`` reports
    whether that happened.
    """

    t: int
    n: int
    w: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"alphabet size t must be >= 1, got {self.t}")
        if self.n < 1:
            raise ValueError(f"word length n must be >= 1, got {self.n}")
        if self.w < 0:
            raise ValueError(f"weight ceiling w must be >= 0, got {self.w}")

    @property
    def w_eff(self) -> int:
        return min(self.w, self.n * (self.t - 1))

    @property
    def clamped(self) -> bool:
        return self.w > self.n * (self.t - 1)

    @property
    def universe_size(self) -> int:
        """Number of length-n words over {0..t-1} with weight <= w."""
        return count_bounded_words(self.t, self.n, self.w_eff)


@dataclass(frozen=True)
class NecklaceInfo:
    """Result of a necklace test.

    ``aperiodic_prefix_len`` is the length of the shortest block the word is a
    repetition of (equivalently its smallest period); None when the word is not
    a necklace at all.
    """

    is_necklace: bool
    aperiodic_prefix_len: int | None


def weight(word: "Word | Sequence[int]") -> int:
    """Sum of the symbols."""
    return sum(_symbols(word))


def colex_less(a: "Word | Sequence[int]", b: "Word | Sequence[int]") -> bool:
    """Strict colexicographic comparison of two equal-length words.

    Colex compares the last symbol first, then the second-to-last, and so on;
    ties at every position mean the words are equal and the result is False.
    Words of different lengths are not comparable and raise ValueError.
    """
    ta, tb = _symbols(a), _symbols(b)
    if len(ta) != len(tb):
        raise ValueError(f"colex compares equal lengths only, got {len(ta)} and {len(tb)}")
    return ta[::-1] < tb[::-1]


def _period_count(a: Sequence[int] | str, n: int) -> tuple[int, int]:
    """(smallest period if a[:n] is a necklace else 0, inner-loop iterations run).

    The package's one necklace test, a single left-to-right pass: p is the
    period of the prefix scanned so far; a symbol below its p-back neighbour
    kills minimality, a symbol above it restarts the period at the full prefix
    length. The word is a necklace exactly when the final p divides n. Symbols
    are only compared, so tuples, lists and ``str`` (code point order) all work.
    """
    p = 1
    for i in range(1, n):
        c, b = a[i], a[i - p]
        if c < b:
            return 0, i
        if c > b:
            p = i + 1
    if n % p:
        return 0, n - 1
    return p, n - 1


def necklace_info(word: "Word | Sequence[int]") -> NecklaceInfo:
    """Test whether the word is a necklace (minimal among its rotations).

    For necklaces also reports the aperiodic prefix length: ``necklace_info``
    of 0101 gives (True, 2), of 011 gives (True, 3); 10 gives (False, None).
    Runs in one pass over the word.
    """
    syms = _symbols(word)
    if not syms:
        raise ValueError("necklace test needs a non-empty word")
    p, _ = _period_count(syms, len(syms))
    if p == 0:
        return NecklaceInfo(False, None)
    return NecklaceInfo(True, p)


def _colex_key(word: tuple[int, ...]) -> tuple[int, ...]:
    return word[::-1]


def enumerate_bounded_necklaces(params: ParamSet) -> list[Word]:
    """All necklaces of length n over {0..t-1} with weight <= w, in colex order.

    Brute force by design (scan all t^n words); this is the reference
    enumeration the fast generators are tested against, so it stays simple.
    Refuses absurd scans rather than hanging.
    """
    t, n, w = params.t, params.n, params.w_eff
    if t**n > 20_000_000:
        raise ValueError(f"refusing to scan {t}^{n} words; this enumerator is for small instances")
    found = [
        word
        for word in product(range(t), repeat=n)
        if sum(word) <= w and _period_count(word, n)[0] > 0
    ]
    found.sort(key=_colex_key)
    return [Word(syms, t) for syms in found]


@lru_cache(maxsize=None)
def count_bounded_words(t: int, n: int, w: int) -> int:
    """Number of length-n words over {0..t-1} with weight <= w, by dynamic programming."""
    if t < 1 or n < 1 or w < 0:
        raise ValueError(f"bad parameters t={t} n={n} w={w}")
    w = min(w, n * (t - 1))
    ways = [1] + [0] * w
    for _ in range(n):
        prefix = 0
        acc = []
        running = list(ways)
        # new[s] = sum_{d=0..min(t-1,s)} ways[s-d], via a sliding window over prefix sums
        for s in range(w + 1):
            prefix += running[s]
            if s - t >= 0:
                prefix -= running[s - t]
            acc.append(prefix)
        ways = acc
    return sum(ways)


def words_iter(t: int, n: int, w: int | None = None) -> Iterable[tuple[int, ...]]:
    """Iterate every length-n word over {0..t-1}, optionally weight-bounded."""
    for word in product(range(t), repeat=n):
        if w is None or sum(word) <= w:
            yield word
