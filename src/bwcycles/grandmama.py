"""Universal cycles for weight-bounded words: concatenation and successor engines.

The concatenation engine walks the first-nonzero parent tree of necklaces
iteratively, visiting necklaces in colexicographic order and emitting each one's
aperiodic prefix. It decides each child when it visits it, most of them by their
zero runs, and tests only the rest. The successor engine produces the identical
cyclic sequence one symbol at a time from any starting window, paying O(n) per
symbol and at most one necklace test. One per-window function makes that
decision for it and for the missing-symbol rule of ``bwcycles.msr``; only the
lead symbol and the tested word differ. The rule calls and the streams call it
once per symbol, and ``exhaustive=True`` swaps in a small brute-force twin that
tests every candidate from the top.

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
    root is the all-zero word, whose only child is 0^(n-1)1 (its other
    candidates end in zero). A node's candidate children are the scan children
    0^j 1 0^(i-1-j) b for j < i and, when a_i < t-1, the probe
    0^i (a_i+1) a_(i+1).. for j = i. The walk decides each one when it visits
    it, most without a test. A node is a necklace, so b ends nonzero (a
    trailing zero would rotate to the front), and L, the longest zero run
    inside b (0 for none), is at most i. A word with a zero run longer than
    its leading one is no necklace, so the visits start at lo = max(i // 2, L):
    under i // 2 the run after the 1 is the longer one, under L a run inside b
    is.

    Each frame carries L and F, the start of the least follower a[F:] of the
    runs of length L inside b (n when L is 0). No descendant changes these
    symbols, as the walk below a node changes only positions up to its change
    index. A probe child keeps them; a scan child first folds in the run
    0^(i-1-j) after its 1, followed by a[i:], which takes L and F when it is
    longer than L, and F alone when it is as long with a smaller follower.
    With the child's own L and F:

    - a word that ends nonzero and whose leading zero run is longer than each
      of its other zero runs is below all its rotations: a Lyndon word, with
      period n. So a child with j > L is one;
    - a tie, j = L, is decided by the child's own follower a[j:j+n-F]
      against a[F:]: below it the child is below every rotation that starts
      at an equally long run, so a Lyndon word; above it the child is above
      one of them, so no necklace. Only an equal follower (or L = 0, which
      leaves F empty) costs a ``_period_count`` test, tallied in ``stats``.

    So every candidate is tested at most once. The root's period is 1 and its
    child's n, and neither costs a test. Besides the scratch word, memory is
    one frame of five ints per node of weight below w on the current path, at
    most w - 1 of them: O(n * t) no matter how long the output is.
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
        # the root's only child 0^(n-1)1 (w >= 1, so t >= 2), a Lyndon word
        a[n - 1] = 1
        if path:
            path.pop()
        if not path:
            yield a[:]
            symbols += n
        if w == 1:
            return
        # one frame per node of weight below w on the current path: [change
        # index, next child's position, child weight, L, F]
        fr = [n - 1, (n - 1) // 2, 2, 0, n]
        stack = [fr]
        while True:
            i, j, wt, L, F = fr
            if path:
                # the path's child: its siblings before it are never decided
                j = path.pop()
            elif j > i:
                # climb out of a node whose children are done
                stack.pop()
                if not stack:
                    return
                a[i] -= 1
                fr = stack[-1]
                continue
            fr[1] = j + 1
            if j < i:
                # the scan child's L and F: it adds the run 0^(i-1-j) after its 1,
                # followed by a[i:]
                r = i - 1 - j
                if r > L:
                    L, F = r, i
                elif r == L and r and a[i:] < a[F:]:
                    F = i
            elif a[i] == tmax:
                continue
            a[j] += 1
            p = n
            if j == L:
                # a tie: the child's own follower against a[F:]
                g = a[F:]
                c = a[j:j + n - F]
                if c == g:
                    p, it = _period_count(a, n)
                    tests += 1
                    iters += it
                elif c > g:
                    p = 0
                if not p:
                    a[j] -= 1
                    continue
            if not path:
                yield a[:p]
                symbols += p
            if wt < w:
                lo = j // 2
                if L > lo:
                    lo = L
                fr = [j, lo, wt + 1, L, F]
                stack.append(fr)
            else:
                a[j] -= 1
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
