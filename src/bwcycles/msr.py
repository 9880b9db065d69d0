"""Universal cycles from the missing-symbol register, for weight ceilings below t.

Every window alpha of weight at most w < t determines the symbol
z = w - weight(alpha) that tops the weight back up; the register that always
emits z has the length-n prefixes of rotations of length-(n+1), weight-w
necklaces as its cycles. Splicing those cycles along the first-nonzero parent
tree gives a universal cycle for the same weight-bounded universe as the
colex-concatenation engine, but traversed in a different order.

``successor_h2`` is the O(n)-per-symbol rule (at most one necklace test per
call), run by the streaming successor loop of ``bwcycles.grandmama`` with the
missing symbol in the lead, and ``iter_msr_chunks`` streams it.
``iter_reverse_colex_prefixes`` streams the concatenation of aperiodic
prefixes of the weight-w necklaces in reverse colex order, through the same
necklace walk as the colex concatenation, and ``check_conjecture`` compares
the two streams symbol by symbol. Their equality is an observation, not a
contract: nothing in this package relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Iterator, Sequence

from bwcycles.grandmama import (GenStats, UCycle, _exhaustive_successor, _necklace_walk,
                                _one_successor, _successor_chunks, _successor_start,
                                _validate_window)
from bwcycles.words import ParamSet, Word

__all__ = [
    "successor_h2",
    "iter_msr_chunks",
    "generate_msr",
    "iter_reverse_colex_prefixes",
    "generate_reverse_colex",
    "ConjectureReport",
    "check_conjecture",
]


def _require_small_weight(params: ParamSet) -> tuple[int, int, int]:
    t, n, w = params.t, params.n, params.w_eff
    if w >= t:
        raise ValueError(
            f"missing-symbol rule needs w < t (got w={w}, t={t});"
            " for w = t expand the weight-bounded cycle instead"
        )
    return t, n, w


def successor_h2(
    params: ParamSet,
    window: "Word | Sequence[int]",
    *,
    exhaustive: bool = False,
    stats: GenStats | None = None,
) -> int:
    """Next symbol after ``window`` in the missing-symbol universal cycle.

    Same decision shape as the colex successor, with the missing symbol z in
    the leading role: find the largest x >= 1 such that 0^(n-j) x y a2..aj is a
    necklace of length n+1 (y keeps the weight at w); emit 0 if z = x, z + 1 if
    z < x, and plain z otherwise. The default path is the first symbol of a
    one-step run of the streaming successor loop that ``successor_h1`` also
    runs, with z in a1's place, and costs at most one necklace test;
    ``exhaustive=True`` is the brute-force twin that tests every candidate.
    """
    _require_small_weight(params)
    syms = _validate_window(params, window)
    if exhaustive:
        return _exhaustive_successor(params, syms, True, stats)
    return _one_successor(params, syms, True, stats)


def iter_msr_chunks(
    params: ParamSet,
    start: "Word | Sequence[int] | None" = None,
    steps: int | None = None,
    stats: GenStats | None = None,
) -> Iterator[list[int]]:
    """``iter_successor_chunks`` for the missing-symbol rule h2, after its w < t check."""
    _require_small_weight(params)
    return _successor_chunks(params, *_successor_start(params, start, steps), stats, True)


def generate_msr(
    params: ParamSet,
    start: "Word | Sequence[int] | None" = None,
    steps: int | None = None,
    stats: GenStats | None = None,
) -> UCycle:
    """Iterate the missing-symbol successor for one full period (or ``steps``).

    The materialised form of ``iter_msr_chunks``.
    """
    chunks = iter_msr_chunks(params, start, steps, stats)
    return UCycle(tuple(chain.from_iterable(chunks)), params, "msr")


def iter_reverse_colex_prefixes(
    params: ParamSet, stats: GenStats | None = None
) -> Iterator[list[int]]:
    """Yield the aperiodic prefix of every length-(n+1), weight-w necklace, in
    reverse colex order (needs w < t).

    This is the colex necklace walk on length n+1 and weights up to w, with
    each node's children visited in reverse. The weight-w necklaces are exactly
    the walk's leaves, so they come out in reverse colex order, in O(n * t)
    memory.
    """
    t, n, w = _require_small_weight(params)
    return _necklace_walk(t, n + 1, w, w, -1, stats)


def generate_reverse_colex(params: ParamSet, stats: GenStats | None = None) -> UCycle:
    """Concatenate aperiodic prefixes of weight-w necklaces of length n+1 in
    reverse colex order.

    The materialised form of ``iter_reverse_colex_prefixes``. It exists to be
    compared against ``generate_msr``, which conjecturally produces the same
    sequence.
    """
    chunks = iter_reverse_colex_prefixes(params, stats)
    return UCycle(tuple(chain.from_iterable(chunks)), params, "reverse-colex")


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of comparing the successor-rule output with the reverse-colex
    concatenation on one parameter cell. Reported, never assumed."""

    t: int
    n: int
    w: int
    holds: bool
    length_msr: int
    length_reverse_colex: int
    first_divergence: tuple[int, int, int] | None  # (index, msr symbol, reverse-colex symbol)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "n": self.n,
            "w": self.w,
            "holds": self.holds,
            "length_msr": self.length_msr,
            "length_reverse_colex": self.length_reverse_colex,
            "first_divergence": None
            if self.first_divergence is None
            else {
                "index": self.first_divergence[0],
                "msr": self.first_divergence[1],
                "reverse_colex": self.first_divergence[2],
            },
        }


def check_conjecture(params: ParamSet) -> ConjectureReport:
    """Compare the msr and reverse-colex streams symbol by symbol, in O(n) memory.

    Both sequences are anchored at the all-zero window (the reverse-colex
    concatenation starts with the 0...0w necklace, so its first n symbols are
    zeros). Divergence is reported, not raised: the equality is an open
    observation and downstream code must keep working if a counterexample
    ever shows up. The shorter stream reads as -1 past its end.
    """
    lengths = [0, 0]

    def counted(chunks, k):
        for chunk in chunks:
            lengths[k] += len(chunk)
            yield from chunk

    a = counted(iter_msr_chunks(params), 0)
    b = counted(iter_reverse_colex_prefixes(params), 1)
    divergence = None
    for i, (x, y) in enumerate(zip_longest(a, b, fillvalue=-1)):
        if x != y:
            divergence = (i, x, y)
            break
    for _ in chain(a, b):
        pass
    return ConjectureReport(
        t=params.t,
        n=params.n,
        w=params.w_eff,
        holds=divergence is None,
        length_msr=lengths[0],
        length_reverse_colex=lengths[1],
        first_divergence=divergence,
    )
