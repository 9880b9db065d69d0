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

from itertools import product
from math import comb
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "Word",
    "ParamSet",
    "NecklaceInfo",
    "weight",
    "colex_less",
    "necklace_info",
    "enumerate_bounded_necklaces",
    "count_bounded_words",
    "words_iter",
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


class _Record:
    """Base of the package's slotted records: plain classes with an explicit
    ``__init__``, which, unlike dataclasses, generate no code at import.

    ``__match_args__`` names the fields: equality and the repr read them in that
    order. A record equals only a record of its own class and has no hash.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # ``_values``: the fields' values as one tuple, read in C
        if cls.__match_args__:
            cls._values = property(attrgetter(*cls.__match_args__))

    def _fill(self, *values) -> None:
        """Set the ``__match_args__`` fields to ``values``, in their order."""
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record whose fields ``__init__`` sets once, through ``_fill``;
    it hashes its fields, and assigning or deleting any attribute raises
    AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


class Word(_Frozen):
    """An immutable word over the alphabet {0..t-1}.

    ``symbols`` holds the word left to right. Validation rejects out-of-range
    symbols at construction time so downstream code never has to re-check.
    """

    __slots__ = __match_args__ = ("symbols", "t")

    def __init__(self, symbols: Sequence[int], t: int) -> None:
        if t < 1:
            raise ValueError(f"alphabet size must be >= 1, got {t}")
        symbols = tuple(symbols)
        for s in symbols:
            if not isinstance(s, int) or not 0 <= s < t:
                raise ValueError(f"symbol {s!r} out of range for alphabet size {t}")
        self._fill(symbols, t)

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


class ParamSet(_Frozen):
    """Parameters (t, n, w): alphabet size, word length, weight ceiling.

    The effective ceiling ``w_eff`` is min(w, n*(t-1)); a requested w above the
    maximum possible weight is clamped, not rejected, and ``clamped`` reports
    whether that happened.
    """

    __slots__ = __match_args__ = ("t", "n", "w")

    def __init__(self, t: int, n: int, w: int) -> None:
        if t < 1:
            raise ValueError(f"alphabet size t must be >= 1, got {t}")
        if n < 1:
            raise ValueError(f"word length n must be >= 1, got {n}")
        if w < 0:
            raise ValueError(f"weight ceiling w must be >= 0, got {w}")
        self._fill(t, n, w)

    @property
    def w_eff(self) -> int:
        return min(self.w, self.n * (self.t - 1))

    @property
    def clamped(self) -> bool:
        return self.w > self.n * (self.t - 1)

    @property
    def universe_size(self) -> int:
        """Number of length-n words over {0..t-1} with weight <= w: the length of
        every cycle of this cell, and through an encoded cell (w = t - 1) C(n, k)
        or C(n + k - 1, k). Read from ``count_bounded_words``."""
        return count_bounded_words(self.t, self.n, self.w_eff)


class NecklaceInfo(NamedTuple):
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


def _period_count(a: Sequence[int], n: int) -> tuple[int, int]:
    """(smallest period if a[:n] is a necklace else 0, inner-loop iterations run).

    The package's one necklace test, a single left-to-right pass: p is the
    period of the prefix scanned so far; a symbol below its p-back neighbour
    kills minimality, a symbol above it restarts the period at the full prefix
    length. The word is a necklace exactly when the final p divides n. Symbols
    are only compared, so tuples and lists both work.
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


# the most words the brute-force necklace enumerator scans before refusing
MAX_SCAN_WORDS = 20_000_000


def _colex_key(word: tuple[int, ...]) -> tuple[int, ...]:
    return word[::-1]


def enumerate_bounded_necklaces(params: ParamSet) -> list[Word]:
    """All necklaces of length n over {0..t-1} with weight <= w, in colex order.

    Brute force by design (test every word of ``words_iter(t, n, w)``); this is
    the reference enumeration the fast generators are tested against, so it
    stays simple. Refuses scans of more than ``MAX_SCAN_WORDS`` words rather
    than hanging.
    """
    t, n, w, size = params.t, params.n, params.w_eff, params.universe_size
    if size > MAX_SCAN_WORDS:
        raise ValueError(f"refusing to scan {size} words; this enumerator is for small instances")
    found = [word for word in words_iter(t, n, w) if _period_count(word, n)[0] > 0]
    found.sort(key=_colex_key)
    return [Word(syms, t) for syms in found]


def count_bounded_words(t: int, n: int, w: int) -> int:
    """Number of length-n words over {0..t-1} with weight <= w, for n >= 0 and any w.

    The package's one count of these words, by inclusion-exclusion on a slack
    symbol: sum_j (-1)^j C(n, j) C(w - j*t + n, n) over j <= min(n, w // t), j
    being how many symbols are forced to t or more. It is 0 for w < 0 and 1 (the
    empty word) for n = 0; at w = t - 1, the k-subset and k-multiset cells, it is
    the single binomial C(w + n, n).
    """
    if t < 1 or n < 0:
        raise ValueError(f"bad parameters t={t} n={n} w={w}")
    w = min(w, n * (t - 1))
    return sum((-1) ** j * comb(n, j) * comb(w - j * t + n, n) for j in range(min(n, w // t) + 1))


def words_iter(t: int, n: int, w: int | None = None) -> Iterable[tuple[int, ...]]:
    """Every length-n word over {0..t-1} with weight <= w, lazily, in lexicographic
    order; no prefix heavier than w is extended (``product`` when w does not bind)."""
    if w is None or w >= n * (t - 1):
        yield from product(range(t), repeat=n)
        return
    word, weight = [0] * n, 0
    while w >= 0:
        yield tuple(word)
        # odometer step: clear trailing positions that cannot grow, bump the next
        i = n - 1
        while i >= 0 and (word[i] == t - 1 or weight == w):
            weight -= word[i]
            word[i] = 0
            i -= 1
        if i < 0:
            return
        word[i] += 1
        weight += 1
