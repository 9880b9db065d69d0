"""Universal cycles from the missing-symbol register, for weight ceilings below t.

Every window alpha of weight at most w < t determines the symbol
z = w - weight(alpha) that tops the weight back up; the register that always
emits z has the length-n prefixes of rotations of length-(n+1), weight-w
necklaces as its cycles. Splicing those cycles along the first-nonzero parent
tree gives a universal cycle for the same weight-bounded universe as the
colex-concatenation engine, but traversed in a different order.

``successor_h2`` is the O(n)-per-symbol rule (at most one necklace test per
call): the per-window successor decision of ``bwcycles.grandmama`` with the
missing symbol in the lead, which ``iter_msr_chunks`` calls once per symbol.
``iter_reverse_colex_prefixes`` walks that parent tree itself, from the root
0^n w down, and streams the aperiodic prefixes of the weight-w necklaces in
its preorder, which is reverse colex order; ``check_conjecture`` compares the
two streams symbol by symbol. Their equality is observed, not proved, and
``combmaps.engine_chunks`` relies on it: ``msr`` runs (the CLI's included)
stream the walk, which is faster than h2 on every cell timed, a seeded one
after h2 steps to its first chunk end. ``generate_msr`` and ``iter_msr_chunks``
always run h2, so the comparison and the tests keep checking the equality.
"""

from __future__ import annotations

from itertools import chain, zip_longest
from typing import Iterator, NamedTuple, Sequence

from bwcycles.grandmama import (GenStats, UCycle, _exhaustive_successor, _successor,
                                _successor_start, _successor_stream, _validate_window)
from bwcycles.words import ParamSet, Word, _period_count

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
    z < x, and plain z otherwise. The default path makes the successor decision
    of ``successor_h1`` with z in a1's place, at most one necklace test;
    ``exhaustive=True`` is the brute-force twin that tests every candidate.
    """
    _require_small_weight(params)
    syms = _validate_window(params, window)
    if exhaustive:
        return _exhaustive_successor(params, syms, True, stats)
    return _successor(params.t, params.n, params.w_eff, syms, True, stats)


def iter_msr_chunks(
    params: ParamSet,
    start: "Word | Sequence[int] | None" = None,
    steps: int | None = None,
    stats: GenStats | None = None,
) -> Iterator[list[int]]:
    """``iter_successor_chunks`` for the missing-symbol rule h2, after its w < t check."""
    _require_small_weight(params)
    return _successor_stream(params, *_successor_start(params, start, steps), stats, True)


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
    reverse colex order (needs w < t, checked before the iterator is returned)."""
    _require_small_weight(params)
    return _msr_tree_walk(params, stats)


def _msr_tree_walk(params, stats, after=None):
    """Walk the MSR parent tree of the weight-w necklaces of length N = n+1.

    From the root 0^n w, a node whose first nonzero symbol is at f has at most
    two children: child k (0, then 1) moves one unit of weight from j+1 to
    j = f-1+k, which is the order that makes the preorder reverse colex. The
    walk keeps one scratch word and a stack of [f, L, F, k] frames, L being the
    node's longest zero run after its first nonzero symbol and a[F:] the least
    follower of such a run of length L (F = N when L is 0). A child that would
    end in zero is refused. Otherwise its leading run j decides it against its
    own L: j > L makes it a Lyndon word, j < L no necklace. A tie, j = L > 0,
    is decided by its follower a[L:L+N-F] against a[F:], which no descendant
    changes (the walk below a node moves weight only at positions up to f+1),
    and a tie with L = 0, a word with no zero, by its first symbol against the
    least of the others: below, the child is a Lyndon word; above, no
    necklace; only an equal one costs one ``_period_count`` (tallied in
    ``stats``). Each edge moves a unit of weight one place left, so the path
    holds at most n*w frames of ints: O(n * t). Given ``after``, a node of the
    tree, the walk takes the path's child at each node down to it and yields
    nothing before it enters ``after``: that chunk comes first, then the rest.
    At the root, it is the walk.
    """
    N, w = params.n + 1, params.w_eff
    tests = iters = symbols = 0
    # the child indices k from the root down to ``after``, popped from the last;
    # msr_parent's moves (a unit from the first nonzero symbol right) end at 0^n w
    a = [0] * (N - 1) + [w] if after is None else list(after)
    path = []
    for f in range(N - 1):
        while a[f]:
            a[f] -= 1
            a[f + 1] += 1
            path.append(1 if a[f] else 0)
    try:
        if not path:
            # the root: 0^n w is a Lyndon word, or 0^(n+1) of period 1 with no children
            p = N if w else 1
            symbols = p
            yield a[:p]
        stack = [[N - 1, 0, N, path.pop() if path else 0]]
        fr = stack[-1]
        while True:
            f, L, F, k = fr
            if k == 2:
                # both children done: undo this node's move and climb out
                stack.pop()
                if not stack:
                    return
                a[f] -= 1
                a[f + 1] += 1
                fr = stack[-1]
                continue
            fr[3] = k + 1
            j = f - 1 + k
            d = j + 1
            s = a[d] if d < N else 0
            if not s:
                continue
            if s == 1:
                # a[d] becomes zero and joins the zero run after it
                if d == N - 1:
                    continue
                q = d + 1
                while not a[q]:
                    q += 1
                # the run a[d:q], followed by a[q:]
                if q - d > L:
                    L, F = q - d, q
                elif q - d == L and a[q:] < a[F:]:
                    F = q
            if j < L:
                continue
            a[j] += 1
            a[d] = s - 1
            p = N
            if j == L:
                # a tie: its follower against a[F:] or, with no zero, its first
                # symbol against the least of the others
                if L:
                    c, e = a[j:j + N - F], a[F:]
                else:
                    c, e = a[0], min(a[1:])
                if c == e:
                    p, it = _period_count(a, N)
                    tests += 1
                    iters += it
                elif c > e:
                    p = 0
                if not p:
                    a[j] -= 1
                    a[d] = s
                    continue
            if path:
                k = path.pop()
            else:
                symbols += p
                yield a[:p]
                # a node with f = 0 has no child 0
                k = 0 if j else 1
            fr = [j, L, F, k]
            stack.append(fr)
    finally:
        if stats is not None:
            stats.add(symbols=symbols, tests=tests, comparisons=iters)


def generate_reverse_colex(params: ParamSet, stats: GenStats | None = None) -> UCycle:
    """Concatenate aperiodic prefixes of weight-w necklaces of length n+1 in
    reverse colex order.

    The materialised form of ``iter_reverse_colex_prefixes``. It exists to be
    compared against ``generate_msr``, which conjecturally produces the same
    sequence.
    """
    chunks = iter_reverse_colex_prefixes(params, stats)
    return UCycle(tuple(chain.from_iterable(chunks)), params, "reverse-colex")


class ConjectureReport(NamedTuple):
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
    zeros). Divergence is reported, not raised, so a sweep lists every
    divergent cell. The equality is an open observation that ``msr`` runs in
    ``combmaps.engine_chunks``, seeded or not, rely on, so a divergent cell would mean
    that those runs emit the reverse-colex sequence rather than h2's there.
    The shorter stream reads as -1 past its end.
    """
    a = chain.from_iterable(iter_msr_chunks(params))
    b = chain.from_iterable(iter_reverse_colex_prefixes(params))
    divergence, i = None, -1
    for i, (x, y) in enumerate(zip_longest(a, b, fillvalue=-1)):
        if x != y:
            divergence = (i, x, y)
            break
    # each stream gave i + 1 symbols, one less if it had ended (read as -1), and
    # after a divergence those still left
    lengths = [i + 1, i + 1]
    if divergence:
        lengths = [i + (x >= 0) + sum(1 for _ in a), i + (y >= 0) + sum(1 for _ in b)]
    return ConjectureReport(
        t=params.t,
        n=params.n,
        w=params.w_eff,
        holds=divergence is None,
        length_msr=lengths[0],
        length_reverse_colex=lengths[1],
        first_divergence=divergence,
    )
