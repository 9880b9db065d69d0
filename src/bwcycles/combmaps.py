"""Subsets and multisets of {1..n} as strings, and universal cycles for them.

Three string representations carry the combinatorial objects:

- subset difference: a k-subset becomes its consecutive gaps d1 = s1,
  di = si - s(i-1), a length-k word over {1..n-k+1};
- multiset shorthand frequency: a k-multiset over {1..n} becomes the counts of
  1..n-1 (the count of n is implied), a length-(n-1) word over {0..k};
- multiset difference: consecutive gaps of the sorted multiset with the first
  symbol lowered by one, a length-k word over {0..n-1}.

Each representation turns the object family into exactly the weight-bounded
word universe some (t, n, w) cell generates, so the engines from grandmama and
msr yield universal cycles for k-subsets and k-multisets directly. For subsets
the engine alphabet {0..n-k} is shifted up by one on output.

``ENCODINGS`` holds each encoding's facts in one row, and ``engine_chunks``
is the one engine dispatch; the ``ucycle_*`` makers, ``decode_window`` and the
CLI read both. The oracle enumerates its universes on its own. ``CombObject``
is the one check of a subset or multiset, so the decoders are bare: partial
sums, or runs of each value by its frequency; ``fixed_weight_size`` owns the
fixed-weight expansion's w <= t rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice, repeat
from math import comb
from typing import Callable, Iterator, Sequence

from bwcycles.grandmama import GenStats, UCycle, iter_concat_prefixes, iter_successor_chunks
from bwcycles.msr import iter_msr_chunks, iter_reverse_colex_prefixes
from bwcycles.words import ParamSet, Word, _symbols, count_bounded_words

__all__ = [
    "CombObject",
    "SCHEME_SUBSET_DIFF",
    "SCHEME_MULTISET_FREQ",
    "SCHEME_MULTISET_DIFF",
    "ENGINES",
    "Encoding",
    "ENCODINGS",
    "engine_chunks",
    "subset_to_diff",
    "diff_to_subset",
    "multiset_to_freq",
    "freq_to_multiset",
    "multiset_to_diff",
    "diff_to_multiset",
    "ucycle_subsets",
    "ucycle_multisets_freq",
    "ucycle_multisets_diff",
    "decode_window",
    "fixed_weight_size",
    "fixed_weight_expand",
]

SCHEME_SUBSET_DIFF = "subset_difference"
SCHEME_MULTISET_FREQ = "multiset_shorthand_frequency"
SCHEME_MULTISET_DIFF = "multiset_difference"


@dataclass(frozen=True)
class CombObject:
    """A k-subset or k-multiset of the ground set {1..n}.

    ``elements`` is sorted; subsets are strictly increasing, multisets merely
    non-decreasing.
    """

    kind: str  # "subset" | "multiset"
    n: int
    k: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("subset", "multiset"):
            raise ValueError(f"kind must be subset or multiset, got {self.kind!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n, k >= 1, got n={self.n} k={self.k}")
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) != self.k:
            raise ValueError(f"expected {self.k} elements, got {len(self.elements)}")
        for e in self.elements:
            if not 1 <= e <= self.n:
                raise ValueError(f"element {e} outside 1..{self.n}")
        pairs = zip(self.elements, self.elements[1:])
        if self.kind == "subset":
            if self.k > self.n:
                raise ValueError(f"a subset cannot have k={self.k} > n={self.n}")
            if any(a >= b for a, b in pairs):
                raise ValueError("subset elements must be strictly increasing")
        elif any(a > b for a, b in pairs):
            raise ValueError("multiset elements must be sorted")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n, "k": self.k, "elements": list(self.elements)}


def subset_to_diff(obj: CombObject) -> Word:
    """Difference representation of a subset: {1,3,4} in [5] -> 121."""
    if obj.kind != "subset":
        raise ValueError("subset_to_diff takes a subset")
    e = obj.elements
    diffs = (e[0],) + tuple(e[i] - e[i - 1] for i in range(1, obj.k))
    return Word(diffs, obj.n - obj.k + 2)


def diff_to_subset(word: "Word | Sequence[int]", n: int) -> CombObject:
    """Inverse of subset_to_diff: the partial sums, which CombObject checks."""
    diffs = _symbols(word)
    return CombObject("subset", n, len(diffs), tuple(accumulate(diffs)))


def multiset_to_freq(obj: CombObject) -> Word:
    """Shorthand frequency representation: counts of 1..n-1, count of n implied."""
    if obj.kind != "multiset":
        raise ValueError("multiset_to_freq takes a multiset")
    if obj.n < 2:
        raise ValueError("frequency words need a ground set with n >= 2")
    counts = [0] * (obj.n - 1)
    for e in obj.elements:
        if e < obj.n:
            counts[e - 1] += 1
    return Word(tuple(counts), obj.k + 1)


def freq_to_multiset(word: "Word | Sequence[int]", k: int) -> CombObject:
    """Inverse of multiset_to_freq: each value repeated by its frequency, then n for
    the rest of k, which CombObject checks; the ground size is the word length plus one."""
    freqs = _symbols(word)
    n = len(freqs) + 1
    runs = chain(*(repeat(v, f) for v, f in enumerate(freqs, start=1)), repeat(n, k - sum(freqs)))
    # one element past k is enough for CombObject to refuse, however large a frequency
    return CombObject("multiset", n, k, tuple(islice(runs, max(k, 0) + 1)))


def multiset_to_diff(obj: CombObject) -> Word:
    """Difference representation with the first symbol lowered by one."""
    if obj.kind != "multiset":
        raise ValueError("multiset_to_diff takes a multiset")
    e = obj.elements
    diffs = (e[0] - 1,) + tuple(e[i] - e[i - 1] for i in range(1, obj.k))
    return Word(diffs, obj.n)


def diff_to_multiset(word: "Word | Sequence[int]", n: int) -> CombObject:
    """Inverse of multiset_to_diff: one plus the partial sums, which CombObject checks."""
    diffs = _symbols(word)
    return CombObject("multiset", n, len(diffs), tuple(accumulate(diffs, initial=1))[1:])


ENGINES = ("grandmama", "msr", "reverse-colex")


def engine_chunks(
    params: ParamSet,
    engine: str,
    start: "Sequence[int] | None" = None,
    steps: int | None = None,
    stats: GenStats | None = None,
) -> tuple[str, Iterator[Sequence[int]]]:
    """Start one engine on one word cell: (engine tag, chunks of the cycle's symbols).

    Errors are raised here, not at the first chunk. Unseeded, grandmama runs
    the colex concatenation walk and msr the reverse-colex one, which emits the
    same symbols as the h2 rule on every cell checked (``msr.check_conjecture``
    and the tests compare the two). A ``start`` window switches grandmama to h1
    and msr to h2, and ``steps`` bounds those successor calls; the
    concatenation walks take neither.
    """
    if engine == "grandmama":
        if start is None:
            return "grandmama-concat", iter_concat_prefixes(params, stats)
        return "grandmama-successor", iter_successor_chunks(params, start, steps, stats)
    if engine == "msr" and start is not None:
        return "msr", iter_msr_chunks(params, start, steps, stats)
    if engine not in ("msr", "reverse-colex"):
        raise ValueError(f"unknown engine {engine!r}")
    if start is not None:
        raise ValueError("reverse-colex takes no start window")
    return engine, iter_reverse_colex_prefixes(params, stats)


@dataclass(frozen=True)
class Encoding:
    """How one family of (n, k) objects rides on a weight-bounded word cell."""

    scheme: str
    cell: Callable[[int, int], ParamSet]  # (n, k) -> the (t, n, w) cell the engines run on
    shift: int  # added to every engine symbol to give the displayed window
    decode: Callable[[Sequence[int], int, int], CombObject]  # (displayed window, n, k)
    length: Callable[[int, int], int]  # closed-form cycle length, |universe|
    accepts: Callable[[int, int], bool]  # the (n, k) range cycles are built for
    refusal: str  # the error for (n, k) outside it, formatted with n and k
    universe: str  # the oracle's enumerate_universe kind
    help: str  # CLI flag help

    def params(self, n: int, k: int) -> ParamSet:
        """The word cell for (n, k), after the guard."""
        if not self.accepts(n, k):
            raise ValueError(self.refusal.format(n=n, k=k))
        return self.cell(n, k)


def _multiset_length(n: int, k: int) -> int:
    return comb(n + k - 1, k)


def _multisets_accepted(n: int, k: int) -> bool:
    return n >= 2 and k >= 2


_MULTISET_REFUSAL = "multiset cycles assume n, k >= 2, got n={n} k={k}"

# keyed by the CLI kind, in the order the CLI lists them
ENCODINGS: dict[str, Encoding] = {
    "subsets": Encoding(
        SCHEME_SUBSET_DIFF, cell=lambda n, k: ParamSet(n - k + 1, k, n - k), shift=1,
        decode=lambda win, n, k: diff_to_subset(win, n), length=comb,
        accepts=lambda n, k: 1 <= k <= n, refusal="subsets need 1 <= k <= n, got n={n} k={k}",
        universe="subset_diff", help="k-subsets of {1..n} in difference representation"),
    "multisets-freq": Encoding(
        SCHEME_MULTISET_FREQ, cell=lambda n, k: ParamSet(k + 1, n - 1, k), shift=0,
        decode=lambda win, n, k: freq_to_multiset(win, k), length=_multiset_length,
        accepts=_multisets_accepted, refusal=_MULTISET_REFUSAL, universe="multiset_freq",
        help="k-multisets of {1..n} in shorthand frequency representation"),
    "multisets-diff": Encoding(
        SCHEME_MULTISET_DIFF, cell=lambda n, k: ParamSet(n, k, n - 1), shift=0,
        decode=lambda win, n, k: diff_to_multiset(win, n), length=_multiset_length,
        accepts=_multisets_accepted, refusal=_MULTISET_REFUSAL, universe="multiset_diff",
        help="k-multisets of {1..n} in difference representation"),
}

_BY_SCHEME = {enc.scheme: enc for enc in ENCODINGS.values()}


def _ucycle(kind: str, n: int, k: int, engine: str) -> UCycle:
    enc = ENCODINGS[kind]
    params = enc.params(n, k)
    tag, chunks = engine_chunks(params, engine)
    symbols = chain.from_iterable(chunks)
    if enc.shift:
        symbols = (s + enc.shift for s in symbols)
    return UCycle(tuple(symbols), params, tag, scheme=enc.scheme, scheme_params=(n, k))


def ucycle_subsets(n: int, k: int, engine: str = "grandmama") -> UCycle:
    """Universal cycle for the k-subsets of {1..n} in difference representation.

    Each k-subset's difference word appears exactly once as a cyclic window; the
    word cell, display shift and length are ``ENCODINGS["subsets"]``. k = n
    collapses to the one-letter alphabet and yields the single window 1^k.
    """
    return _ucycle("subsets", n, k, engine)


def ucycle_multisets_freq(n: int, k: int, engine: str = "grandmama") -> UCycle:
    """Universal cycle for k-multisets of {1..n} in shorthand frequency form
    (``ENCODINGS["multisets-freq"]``)."""
    return _ucycle("multisets-freq", n, k, engine)


def ucycle_multisets_diff(n: int, k: int, engine: str = "grandmama") -> UCycle:
    """Universal cycle for k-multisets of {1..n} in difference form
    (``ENCODINGS["multisets-diff"]``)."""
    return _ucycle("multisets-diff", n, k, engine)


def decode_window(cycle: UCycle, position: int):
    """Decode the cyclic window starting at ``position``.

    For scheme-tagged cycles this returns the CombObject behind the window; for
    plain word cycles it returns the window as a Word.
    """
    if not 0 <= position < len(cycle):
        raise ValueError(f"position {position} outside 0..{len(cycle) - 1}")
    win = cycle.window(position)
    if cycle.scheme is None:
        return Word(win, cycle.t)
    enc = _BY_SCHEME.get(cycle.scheme)
    if enc is None:
        raise ValueError(f"unknown scheme {cycle.scheme!r}")
    return enc.decode(win, *cycle.scheme_params)


def fixed_weight_size(params: ParamSet) -> int:
    """How many length-(n+1), weight-w words ``fixed_weight_expand`` lists; refuses w > t."""
    t, n, w = params.t, params.n, params.w_eff
    if w > t:
        raise ValueError(f"fixed-weight expansion needs w <= t, got w={w} t={t}")
    return count_bounded_words(t, n + 1, w) - (count_bounded_words(t, n + 1, w - 1) if w else 0)


def fixed_weight_expand(cycle: UCycle) -> list[tuple[int, ...]]:
    """Expand a weight-bounded cycle into every weight-w word of length n+1.

    Appending the missing symbol w - weight(window) to each cyclic window gives
    each length-(n+1) word of weight exactly w once, provided w < t. At w = t
    the all-zero window is first collapsed from n zeros to n-1 (dropping one
    symbol of the cycle); above t there is no such cycle and ``fixed_weight_size``
    refuses.
    """
    if cycle.scheme is not None:
        raise ValueError("fixed-weight expansion applies to word-level cycles")
    fixed_weight_size(cycle.params)
    w = cycle.w
    if w == cycle.t:
        spot = next((i for i, win in enumerate(cycle.windows()) if not any(win)), None)
        if spot is None:
            raise ValueError("w = t expansion needs the all-zero window in the cycle")
        cycle = replace(cycle, symbols=cycle.symbols[:spot] + cycle.symbols[spot + 1:])
    return [win + (w - sum(win),) for win in cycle.windows()]
