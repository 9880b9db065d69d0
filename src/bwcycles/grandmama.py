"""Universal cycles for weight-bounded words: concatenation and successor engines.

The concatenation engine walks the first-nonzero parent tree of necklaces
iteratively (probe the change index, then scan left), visiting necklaces in
colexicographic order and emitting each one's aperiodic prefix. The successor
engine produces the identical cyclic sequence one symbol at a time from any
starting window, paying O(n) per symbol and at most one necklace test. One
streaming loop makes that decision for it and for the missing-symbol rule of
``bwcycles.msr``; only the lead symbol and the tested word differ. A single
rule call is a one-step run of the loop, and ``exhaustive=True`` swaps in a
small brute-force twin that tests every candidate from the top.

Both are instrumented: ``GenStats`` counts emitted symbols, necklace tests, and
inner-loop iterations of the necklace test (each iteration is at most two
symbol comparisons), which is how the constant-amortized-work claim is checked.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain, cycle, islice
from typing import Iterator, Sequence

from bwcycles.words import ParamSet, Word, _period_count, _render, _symbols

__all__ = [
    "UCycle",
    "GenStats",
    "iter_concat_prefixes",
    "generate_concat",
    "successor_h1",
    "iter_successor_chunks",
    "generate_by_successor",
]

# symbols per successor chunk: per-chunk costs vanish, memory stays small
SUCCESSOR_CHUNK = 4096


@dataclass
class GenStats:
    """Instrumentation counters shared by the generators in this package."""

    symbols: int = 0
    necklace_tests: int = 0
    comparisons: int = 0

    def add(self, symbols=0, tests=0, comparisons=0):
        self.symbols += symbols
        self.necklace_tests += tests
        self.comparisons += comparisons


@dataclass(frozen=True)
class UCycle:
    """A generated cyclic sequence plus enough provenance to interpret it.

    ``params`` is the underlying (t, n, w) cell; ``n`` doubles as the window
    length. The subset/multiset wrappers set ``scheme`` and re-alphabet the
    symbols, so only word-level cycles promise symbols < t.
    """

    symbols: tuple[int, ...]
    params: ParamSet
    engine: str
    scheme: str | None = None
    scheme_params: tuple[int, int] | None = None

    @property
    def t(self) -> int:
        return self.params.t

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def w(self) -> int:
        return self.params.w_eff

    def __len__(self) -> int:
        return len(self.symbols)

    def window(self, i: int) -> tuple[int, ...]:
        """The length-n window starting at cyclic position i."""
        L = len(self.symbols)
        return tuple(self.symbols[(i + d) % L] for d in range(self.n))

    def windows(self) -> Iterator[tuple[int, ...]]:
        """Every cyclic window by its start: a zip of n shifted slices of the cycle
        and its next n-1 symbols, going round as often as a short cycle needs."""
        L, n = len(self.symbols), self.n
        wrap = tuple(islice(cycle(self.symbols), n - 1))
        return zip(*(islice(chain(self.symbols, wrap), d, d + L) for d in range(n)))

    def __str__(self) -> str:
        return _render(self.symbols)


def iter_concat_prefixes(params: ParamSet, stats: GenStats | None = None) -> Iterator[list[int]]:
    """Yield the aperiodic prefix of every weight-bounded necklace, in colex order.

    Concatenating the chunks gives the universal cycle. Memory stays O(n * t)
    no matter how long the output is; chunks are fresh lists the caller may
    keep. All necklace tests, one per candidate child, are tallied in ``stats``.
    """
    return _necklace_walk(params.t, params.n, params.w_eff, 0, 1, stats)


def _necklace_walk(t, n, w, floor, step, stats):
    """Walk the first-nonzero parent tree of length-n necklaces of weight at most w.

    Yields, in pre-order, the aperiodic prefix of every node of weight >= ``floor``.
    A node's children bump one position each, and are visited by increasing
    position when ``step`` is 1 (colex order) or decreasing when it is -1. The
    walk keeps one shared scratch word and an explicit stack.

    Every node except the root is 0^i a_i..a_(n-1) with a_i >= 1, where i, its
    change index, is the position its parent bumped; the root is the all-zero
    word, with change index n-1. Children are discovered by first probing the
    increment at i, then scanning positions j to its left (setting a_j = 1)
    until a test fails or j < i // 2, below which 0^j 1 0^(i-1-j) a_i.. has a
    zero run longer than its leading one and is no necklace. Each test's period
    is kept for the child it found, so every candidate is tested exactly once;
    the root's period is 1 and costs no test.

    Besides the scratch word, memory is one frame per node with children on
    the current path (at most w + 1) and the kept periods of the children not
    yet entered. Those are at most n in all when ``step`` is 1 (each frame
    holds the positions between its entered child and its own change index),
    and at most n per frame when it is -1. That is O(n * t) for the colex walk,
    and for the reverse walk whenever w < t.
    """
    a = [0] * n
    tmax = t - 1
    tests = 0
    iters = 0
    symbols = 0
    try:
        if floor == 0:
            yield [0]
            symbols = 1
        if w == 0:
            return
        # one frame per node with children on the current path, the root included
        # (with w >= 1 it has the child 0...01, so every leaf has a parent frame):
        # [periods of the children left, in reverse visiting order,
        #  next child's position, child weight, change_index]
        stack = []
        i, wt = n - 1, 0
        while True:
            ps = []
            if wt < w:
                # the children's periods by decreasing position: probe, then scan
                if a[i] < tmax:
                    a[i] += 1
                    p, it = _period_count(a, n)
                    a[i] -= 1
                    tests += 1
                    iters += it
                    if p:
                        ps.append(p)
                j = i - 1
                half = i // 2
                while j >= half:
                    a[j] = 1
                    p, it = _period_count(a, n)
                    a[j] = 0
                    tests += 1
                    iters += it
                    if p == 0:
                        break
                    ps.append(p)
                    j -= 1
            if ps:
                # the children bump positions j+1 .. j+len(ps)
                if step > 0:
                    fr = [ps, j + 1, wt + 1, i]
                else:
                    ps.reverse()
                    fr = [ps, j + len(ps), wt + 1, i]
                stack.append(fr)
            else:
                a[i] -= 1
                fr = stack[-1]
                # climb out of every node whose children are done
                while not fr[0]:
                    stack.pop()
                    if not stack:
                        return
                    a[fr[3]] -= 1
                    fr = stack[-1]
            i = fr[1]
            fr[1] = i + step
            # enter the child that bumps position i
            a[i] += 1
            wt = fr[2]
            p = fr[0].pop()
            if wt >= floor:
                yield a[:p]
                symbols += p
    finally:
        if stats is not None:
            stats.add(symbols=symbols, tests=tests, comparisons=iters)


def generate_concat(params: ParamSet, stats: GenStats | None = None) -> UCycle:
    """Build the whole universal cycle for one (t, n, w) cell.

    The materialized form of ``iter_concat_prefixes``, which streams the same
    symbols in O(n * t) memory; use that for very long outputs.
    """
    chunks = iter_concat_prefixes(params, stats)
    return UCycle(tuple(chain.from_iterable(chunks)), params, "grandmama-concat")


def _validate_window(params: ParamSet, window) -> tuple[int, ...]:
    syms = _symbols(window)
    if len(syms) != params.n:
        raise ValueError(f"window length {len(syms)} != n = {params.n}")
    if not all(isinstance(s, int) for s in syms):
        raise ValueError(f"window {syms!r} has non-integer symbols")
    if any(s < 0 or s >= params.t for s in syms):
        raise ValueError(f"window {syms} has symbols outside 0..{params.t - 1}")
    if sum(syms) > params.w_eff:
        raise ValueError(f"window {syms} exceeds the weight ceiling {params.w_eff}")
    if params.t > sys.maxunicode + 1:
        # the successor loop holds its window as text, one code point per symbol
        raise ValueError(f"successor rules need t <= {sys.maxunicode + 1}, got t={params.t}")
    return syms


def successor_h1(
    params: ParamSet,
    window: "Word | Sequence[int]",
    *,
    exhaustive: bool = False,
    stats: GenStats | None = None,
) -> int:
    """Next symbol after ``window`` in the colex concatenation cycle.

    The rule: let j be the position of the last nonzero symbol among the final
    n-1 window symbols (position 1 when there is none), and let x be the
    largest symbol that keeps 0^(n-j) x a2..aj a necklace without busting the
    weight ceiling. Emit 0 when the leading symbol equals x, leading+1 when it
    is below x, and the leading symbol unchanged otherwise (including x
    nonexistent).

    The default path is the first symbol of a one-step run of the streaming
    successor loop, which locates the only viable candidate arithmetically and
    spends at most one necklace test. ``exhaustive=True`` is its brute-force
    twin, which tests candidates from the top; the tests assert they agree.
    """
    syms = _validate_window(params, window)
    if exhaustive:
        return _exhaustive_successor(params, syms, False, stats)
    return _one_successor(params, syms, False, stats)


def _one_successor(params, syms, msr, stats):
    """One step of the successor loop; ``stats`` gains its tests and comparisons."""
    counted = GenStats()
    chunks = _successor_chunks(params, syms, 1, counted, msr)
    next(chunks)
    (s,) = next(chunks)
    if stats is not None:
        stats.add(tests=counted.necklace_tests, comparisons=counted.comparisons)
    return s


def _exhaustive_successor(params, syms, msr, stats):
    """Brute-force twin of the successor loop: test every candidate x from the top.

    The lead symbol is a1 for h1 and the missing symbol z = w - weight for h2;
    the tested word is 0^r x a2..aj for h1 and 0^r x y a2..aj, with companion
    y = z - x + a1, for h2. x stays 0 when no candidate is a necklace.
    """
    a1, z = syms[0], params.w_eff - sum(syms)
    j = params.n - 1
    while j and not syms[j]:
        j -= 1
    pad, tail = (0,) * (params.n - 1 - j), syms[1 : j + 1]
    x = 0
    for cand in range(min(params.t - 1, z + a1), 0, -1):
        word = pad + ((cand, z - cand + a1) if msr else (cand,)) + tail
        p, it = _period_count(word, len(word))
        if stats is not None:
            stats.add(tests=1, comparisons=it)
        if p:
            x = cand
            break
    lead = z if msr else a1
    return lead if lead > x else 0 if lead == x else lead + 1


def iter_successor_chunks(
    params: ParamSet,
    start: "Word | Sequence[int] | None" = None,
    steps: int | None = None,
    stats: GenStats | None = None,
) -> Iterator[list[int]]:
    """Stream the cycle the colex rule h1 draws from ``start``, as lists of symbols.

    ``start`` (default all zeros) is validated before the iterator is returned.
    The first chunk is the start window. One full period takes |Sigma_t(n,w)| - n
    rule calls, unless ``steps`` sets the count. h2 streams only through
    ``bwcycles.msr.iter_msr_chunks``, which checks its w < t.
    """
    return _successor_chunks(params, *_successor_start(params, start, steps), stats, False)


def _successor_start(params, start, steps):
    """(validated start window, rule calls for one period or ``steps``), for h1 and h2."""
    n = params.n
    syms = _validate_window(params, (0,) * n if start is None else start)
    if steps is None:
        size = params.universe_size
        if size < n:
            # single-word universes: the cycle is shorter than the window
            syms, steps = syms[:size], 0
        else:
            steps = size - n
    return syms, steps


def _successor_chunks(params, syms, steps, stats, msr):
    """The one fast successor loop, for h1 (``msr`` false) and h2 (``msr`` true).

    Yields the start window, then ``steps`` successors in chunks. Per symbol,
    the largest candidate x that a necklace 0^r x a2..aj (h1) or 0^r x y a2..aj
    (h2, y = z - x + a1) can have is found arithmetically, and one necklace
    test decides between it and the symbol below. The window is a ``str`` of
    code points, so the zero-run search, the zero check and the shift run in
    C. j, the position of the last nonzero symbol among a2..an (0 for none),
    is carried: n-1 after a nonzero symbol, one less after a zero. So is the
    missing weight z. Counters are flushed once per chunk.
    """
    t, n, w = params.t, params.n, params.w_eff
    tmax, n1, word_len = t - 1, n - 1, n + 1 if msr else n
    pads = ["\0" * r for r in range(n)]
    if stats is not None:
        stats.add(symbols=len(syms))
    yield list(syms)
    win = "".join(map(chr, syms))
    z = w - sum(syms)
    j = max(len(win.rstrip("\0")) - 1, 0)
    while steps > 0:
        k = min(steps, SUCCESSOR_CHUNK)
        steps -= k
        chunk = []
        append = chunk.append
        tests = iters = 0
        for _ in range(k):
            a1 = ord(win[0])
            rest = win[1:]  # a2..an: the tail a2..aj, then r zeros
            u = z + a1
            # h1 keeps the weight within w; for h2 the companion y stays >= 0
            # (and below t, as z + a1 <= w < t)
            x = u if u < tmax else tmax
            if x:
                r = n1 - j
                if r:
                    # a symbol that follows a run of r zeros inside the tail caps
                    # x; the tail ends nonzero, so each run is followed, and the
                    # search stops at the trailing run, which starts at j
                    pad = pads[r]
                    q = rest.find(pad)
                    while q < j:
                        c = ord(rest[q + r])
                        if c < x:
                            x = c
                            if not c:
                                break
                        q = rest.find(pad, q + r + 1)
                else:
                    # with no padding, x is at most every tail symbol
                    if "\0" in rest:
                        x = 0
                    elif rest:
                        c = ord(min(rest))
                        if c < x:
                            x = c
                    if msr and x + x > u:
                        # y follows x, and the rotation starting at y caps x:
                        # x <= y, i.e. 2x <= a1 + z. Starting above that can
                        # need several decrements (seen at t=7, n=2, w=6,
                        # window 13).
                        x = u // 2
                if x:
                    if msr:
                        word = f"{pads[r]}{chr(x)}{chr(u - x)}{rest[:j]}"
                    else:
                        word = f"{pads[r]}{chr(x)}{rest[:j]}"
                    p, it = _period_count(word, word_len)
                    tests += 1
                    iters += it
                    if not p:
                        # the start point can fail, but then the symbol below holds
                        x -= 1
            lead = z if msr else a1
            s = lead if lead > x else 0 if lead == x else lead + 1
            append(s)
            z += a1 - s
            win = rest + chr(s)
            if s:
                j = n1
            elif j:
                j -= 1
        if w - z != sum(map(ord, win)):
            raise AssertionError(f"carried weight drifted: {w - z} != {sum(map(ord, win))}")
        if stats is not None:
            stats.add(symbols=k, tests=tests, comparisons=iters)
        yield chunk


def generate_by_successor(
    params: ParamSet,
    start: "Word | Sequence[int] | None" = None,
    steps: int | None = None,
    stats: GenStats | None = None,
) -> UCycle:
    """Generate the cycle by iterating the successor rule from ``start``.

    By default emits exactly one full period: the universe size |Sigma_t(n,w)|
    symbols. From the all-zero window this is byte-for-byte the concatenation
    engine's output; from any other valid window it is the same cyclic sequence
    rotated. ``steps`` overrides the number of successor applications.
    """
    chunks = iter_successor_chunks(params, start, steps, stats)
    return UCycle(tuple(chain.from_iterable(chunks)), params, "grandmama-successor")
