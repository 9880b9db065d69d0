"""Universal cycles for weight-bounded words: concatenation and successor engines.

The concatenation engine walks the first-nonzero parent tree of necklaces
iteratively (probe the change index, then scan left), visiting necklaces in
colexicographic order and emitting each one's aperiodic prefix. It decides most
children by their zero runs and tests only the rest. The successor
engine produces the identical cyclic sequence one symbol at a time from any
starting window, paying O(n) per symbol and at most one necklace test. One
per-window function makes that decision for it and for the missing-symbol rule
of ``bwcycles.msr``; only the lead symbol and the tested word differ. The rule
calls and the streams call it once per symbol, and ``exhaustive=True`` swaps in
a small brute-force twin that tests every candidate from the top.

Both are instrumented: ``GenStats`` counts emitted symbols, necklace tests, and
inner-loop iterations of the necklace test (each iteration is at most two
symbol comparisons), which is how the constant-amortized-work claim is checked.
"""

from __future__ import annotations

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

    Concatenating the chunks gives the universal cycle. Chunks are fresh lists
    the caller may keep. The walk follows the first-nonzero parent tree of the
    length-n necklaces of weight at most w in pre-order, visiting each node's
    children, which bump one position each, by increasing position. It keeps
    one shared scratch word and an explicit stack.

    Every node except the root is 0^i b, where b = a_i..a_(n-1) starts with
    a_i >= 1 and i, its change index, is the position its parent bumped; the
    root is the all-zero word, with change index n-1. Its children are the
    probe 0^i (a_i+1) a_(i+1).. and, scanning left, the words 0^j 1 0^(i-1-j) b
    that are necklaces. Most are decided without a test. A node is a necklace,
    so b ends nonzero (a trailing zero would rotate to the front), and L, the
    longest zero run inside b (0 for none), is at most i. Each frame carries L:
    a probe child keeps it, the scan child at j has max(i-1-j, L). Then:

    - a word that ends nonzero and whose leading zero run is longer than each
      of its other zero runs is below all its rotations: a Lyndon word, with
      period n. So the probe is one when i > L, and the scan child at j is one
      when j > L and i-1-j < j;
    - a word with a zero run longer than its leading one is no necklace. So
      the scan stops below lo = max(i // 2, L): under i // 2 the run after
      the 1 is the longer one, under L a run inside b is;
    - the root's only child is 0^(n-1)1; its other candidates end in zero.

    What is left is a tie: a probe with L = i, or the scan child at lo when
    lo = L or i = 2 lo + 1, whose leading run is as long as its longest other
    run. A node has at most one tied child: the probe ties only when i = L,
    and then lo = i, so there is no scan child; one block decides either.
    Each frame also carries F, the start of the least follower a[F:] of the
    runs of length L inside b (n when L is 0); the scan child's run after its
    1 has the follower a[i:], which takes F's place when it is the longer run
    or the smaller follower of two as long. No descendant changes these
    symbols, as the walk below a node changes only positions up to its change
    index. A tied candidate's own follower, its a[L:L+n-F] with L its leading
    run, decides it against a[F:]: below it the candidate is below every
    rotation that starts at an equally long run, so a Lyndon word; above it
    the candidate is above one of them, so no necklace. Only an equal follower
    (or L = 0, which leaves F empty) costs a ``_period_count`` test, and the
    period is kept for entering the child, so every tested candidate is tested
    exactly once; the tests are tallied in ``stats``. The root's period is 1
    and costs no test.

    Besides the scratch word, memory is one frame of ints per node with
    children on the current path (at most w + 1) and the kept periods of the
    children not yet entered, at most n in all (each frame holds the positions
    between its entered child and its own change index): O(n * t) no matter
    how long the output is.
    """
    return _concat_walk(params, stats)


def _concat_walk(params, stats, after=None):
    """The walk of ``iter_concat_prefixes``. Given ``after``, a necklace, it takes the
    path's child at each node down to it and yields nothing before it enters
    ``after``: that chunk comes first, then the rest. At the root, it is the walk."""
    t, n, w = params.t, params.n, params.w_eff
    tmax = t - 1
    tests = iters = symbols = 0
    # the positions the path bumps, popped from the last: each bump undoes the
    # parent's decrement of a first nonzero symbol, so they fall from n-1
    path = [i for i, s in enumerate(after or ()) for _ in range(s)]
    try:
        a = [0] * n
        if not path:
            yield [0]
            symbols = 1
        if w == 0:
            return
        # one frame per node with children on the current path: [periods of the
        # children left, in reverse visiting order, next child's position, child
        # weight, change index, L, F]. The root's frame holds its only child
        # 0^(n-1)1 (w >= 1, so t >= 2), a Lyndon word, and the L and F it keeps.
        fr = [[n], n - 1, 1, n - 1, 0, n]
        stack = [fr]
        while True:
            # enter the child that bumps position i
            i = fr[1]
            if path:
                # the path's child: drop the periods of the siblings before it
                i = path.pop()
                del fr[0][len(fr[0]) + fr[1] - i:]
            fr[1] = i + 1
            a[i] += 1
            wt = fr[2]
            p = fr[0].pop()
            if not path:
                yield a[:p]
                symbols += p
            if wt < w:
                ps = []
                # this node's L and F: a scan child adds the run 0^(ci-1-i) after
                # its 1, followed by a[ci:]
                ci, L, F = fr[3], fr[4], fr[5]
                r = ci - 1 - i
                if r > L:
                    L, F = r, ci
                elif r == L and r and a[ci:] < a[F:]:
                    F = ci
                # the children's periods by decreasing position: probe, then scan
                # down to lo. lo < i exactly when i > L, so at most one child
                # ties, and it bumps lo: the scan child there, or else the probe
                # when i == L, which leaves no scan. g, set only for a tie, is
                # the follower the tied child is compared with
                lo = i // 2
                if L > lo:
                    lo = L
                j = i - 1
                g = None
                if lo < i:
                    if a[i] < tmax:
                        ps.append(n)
                    ps += [n] * (i - 1 - lo)
                    j = lo - 1
                    if L < lo and i % 2 == 0:
                        ps.append(n)
                    else:
                        # a tie with the runs inside b (lo == L), with the run after
                        # the 1 (i == 2 lo + 1, lo >= 1), or both: the least follower
                        if L < lo:
                            g = a[i:]
                        else:
                            g = a[F:]
                            if lo and i == lo + lo + 1:
                                h = a[i:]
                                if h < g:
                                    g = h
                elif a[i] < tmax:
                    # the probe's follower a[i:] against a[F:]
                    g = a[F:]
                if g is not None:
                    # bump a[lo] (from 0 for the scan child, from a[i] for the
                    # probe) and compare the child's own follower with g
                    s = a[lo]
                    a[lo] = s + 1
                    c = a[lo:lo + len(g)]
                    if c < g:
                        ps.append(n)
                    elif c > g:
                        # a rejected child at lo ends the scan above it (after a
                        # probe tie there is no scan, and ps stays empty)
                        j = lo
                    else:
                        p, it = _period_count(a, n)
                        tests += 1
                        iters += it
                        if p:
                            ps.append(p)
                        else:
                            j = lo
                    a[lo] = s
                if ps:
                    # the children bump positions j+1 .. j+len(ps)
                    fr = [ps, j + 1, wt + 1, i, L, F]
                    stack.append(fr)
                    continue
            a[i] -= 1
            # climb out of every node whose children are done
            while not fr[0]:
                stack.pop()
                if not stack:
                    return
                a[fr[3]] -= 1
                fr = stack[-1]
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

    The default path locates the only viable candidate arithmetically and
    spends at most one necklace test. ``exhaustive=True`` is its brute-force
    twin, which tests candidates from the top; the tests assert they agree.
    """
    syms = _validate_window(params, window)
    if exhaustive:
        return _exhaustive_successor(params, syms, False, stats)
    return _successor(params.t, params.n, params.w_eff, syms, False, stats)


def _window_head(n, w, win):
    """(a1, z, r, tail) of a window: its first symbol, the missing weight w - weight,
    and a2..an split at j, the position of their last nonzero symbol (1 for none),
    into the tail a2..aj and the r = n-j zeros after it, which pad the tested word."""
    j = n - 1
    while j and not win[j]:
        j -= 1
    return win[0], w - sum(win), n - 1 - j, win[1 : j + 1]


def _successor(t, n, w, win, msr, stats):
    """The successor decision for h1 (``msr`` false) and h2 (``msr`` true) on a tuple window.

    The largest candidate x that a necklace 0^r x a2..aj (h1) or 0^r x y a2..aj
    (h2, y = z - x + a1) can have is found arithmetically, and one necklace
    test, tallied in ``stats``, decides between it and the symbol below.
    """
    a1, z, r, tail = _window_head(n, w, win)
    u = z + a1
    # h1 keeps the weight within w; for h2 the companion y stays >= 0 (and below
    # t, as z + a1 <= w < t)
    x = u if u < t - 1 else t - 1
    if x:
        # a symbol that follows a run of r zeros inside the tail caps x, and a
        # longer run leaves no candidate; with r = 0 every tail symbol caps x
        run = 0
        for c in tail:
            if c:
                if run == r and c < x:
                    x = c
                run = 0
            elif run == r:
                x = 0
                break
            else:
                run += 1
        if msr and not r and x + x > u:
            # y follows x, and the rotation starting at y caps x: x <= y, i.e.
            # 2x <= a1 + z. Starting above that can need several decrements (seen
            # at t=7, n=2, w=6, window 13).
            x = u // 2
        if x:
            word = (0,) * r + ((x, u - x) if msr else (x,)) + tail
            p, it = _period_count(word, len(word))
            if stats is not None:
                stats.add(tests=1, comparisons=it)
            if not p:
                # the start point can fail, but then the symbol below holds
                x -= 1
    lead = z if msr else a1
    return lead if lead > x else 0 if lead == x else lead + 1


def _exhaustive_successor(params, syms, msr, stats):
    """Brute-force twin of ``_successor``: test every candidate x from the top.

    The lead symbol is a1 for h1 and the missing symbol z = w - weight for h2;
    the tested word is 0^r x a2..aj for h1 and 0^r x y a2..aj, with companion
    y = z - x + a1, for h2. x stays 0 when no candidate is a necklace.
    """
    a1, z, r, tail = _window_head(params.n, params.w_eff, syms)
    x = 0
    for cand in range(min(params.t - 1, z + a1), 0, -1):
        word = (0,) * r + ((cand, z - cand + a1) if msr else (cand,)) + tail
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
    The first chunk is the start window; every later chunk is a list of exactly
    one symbol, the successor of the window before it. One full period takes
    |Sigma_t(n,w)| - n rule calls, unless ``steps`` sets the count. ``stats``
    gains the symbols yielded and their tests when the stream ends or is closed.
    h2 streams only through ``bwcycles.msr.iter_msr_chunks``, which checks its w < t.
    """
    return _successor_stream(params, *_successor_start(params, start, steps), stats, False)


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
    elif steps < 0:
        raise ValueError(f"steps cannot be negative, got {steps}")
    return syms, steps


def _successor_stream(params, syms, steps, stats, msr):
    """The start window, then ``steps`` successors under h1 or h2, one ``_successor``
    call and one one-symbol list each."""
    t, n, w = params.t, params.n, params.w_eff
    counted, symbols = GenStats(), len(syms)
    try:
        yield list(syms)
        for _ in range(steps):
            s = _successor(t, n, w, syms, msr, counted)
            symbols += 1
            yield [s]
            syms = syms[1:] + (s,)
    finally:
        if stats is not None:
            stats.add(symbols=symbols, tests=counted.necklace_tests,
                      comparisons=counted.comparisons)


def _resumed_chunks(params, syms, steps, stats, msr, walk):
    """``_successor_stream(params, syms, steps, stats, msr)``'s symbols, mostly from a walk.

    A window W ends a necklace's chunk exactly when W is that necklace (h1, W not
    0^n) or [z] + W is (h2, z = w - weight(W)), as the tests check on a grid. So
    the rule steps only until that holds, at most n+1 times, ``walk(params, stats,
    after)`` descends there and fresh walks (``after`` None) go round the cycle.
    """
    t, n, w = params.t, params.n, params.w_eff
    counted, head, left = GenStats(), list(syms), steps
    walks = walk(params, counted, None)  # replaced by the resumed walk at a chunk end
    try:
        while left:
            win = tuple(head[-n:])
            node = (w - sum(win), *win) if msr else win
            p, it = _period_count(node, len(node))
            counted.add(tests=1, comparisons=it)
            if p and (msr or any(win)):
                walks = walk(params, counted, node)
                next(walks)  # ``node``'s chunk, which the head already ends
                break
            head.append(_successor(t, n, w, win, msr, counted))
            left -= 1
        yield head
        while left > 0:
            for chunk in walks:
                left -= len(chunk)
                yield chunk if left >= 0 else chunk[:left]
                if left <= 0:
                    return
            walks = walk(params, counted, None)
    finally:
        walks.close()
        if stats is not None:
            stats.add(symbols=len(syms) + steps - max(left, 0), tests=counted.necklace_tests,
                      comparisons=counted.comparisons)


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
