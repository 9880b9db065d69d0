"""Command-line front end: generate, decode, verify, tree, conjecture.

Generation streams the engine's chunks straight to stdout, rendered and
written a batch at a time, so memory stays O(n + batch) however long the cycle
(the verify and conjecture modes buffer, and say so via their --max-universe /
sweep caps). A seed window is checked before anything is written, and --stats
reports the same counters as the library run of the same cycle. Exit codes: 0
success, 1 verification failure, 2 usage or parameter error, and every error
prints a single "error: ..." line on stderr.

The reverse-colex engine is the one construction that cannot stream: it sorts
the whole necklace list before emitting anything, so its output is buffered no
matter the format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import Iterator, Sequence

from bwcycles.combmaps import (
    SCHEME_MULTISET_DIFF,
    SCHEME_MULTISET_FREQ,
    SCHEME_SUBSET_DIFF,
    decode_window,
    fixed_weight_expand,
)
from bwcycles.cyclejoin import FeedbackKind, build_tree
from bwcycles.grandmama import GenStats, UCycle, iter_concat_prefixes, iter_successor_chunks
from bwcycles.msr import check_conjecture, generate_reverse_colex, iter_msr_chunks
from bwcycles.oracle import enumerate_universe, verify_listing, verify_universal_cycle
from bwcycles.words import ParamSet

__all__ = ["main"]

ENGINES = ("grandmama", "msr", "reverse-colex")

# symbols per render call and write: per-write costs vanish, memory stays small
RENDER_BATCH = 1 << 16


class CliError(Exception):
    """Raised for anything that should become `error: ...` plus exit code 2."""


class _OneLineParser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


@dataclass
class _Cell:
    """A resolved target: which word cell the engines run on and how to display it."""

    kind: str  # words | subsets | multisets-freq | multisets-diff
    params: ParamSet
    nk: tuple[int, int] | None
    shift: int  # added to every engine symbol on output
    scheme: str | None
    length: int


def _parse_symbols(text: str) -> tuple[int, ...]:
    """Parse a window or sequence: either comma/space separated ints or bare digits."""
    text = text.strip()
    if "," in text or " " in text:
        parts = [p for p in text.replace(",", " ").split() if p]
    elif text.isdigit():
        parts = list(text)
    else:
        raise CliError(f"cannot parse symbols from {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise CliError(f"cannot parse symbols from {text!r}") from None


def _add_cell_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t", type=int, help="alphabet size")
    sp.add_argument("--n", type=int, help="window length")
    sp.add_argument("--w", type=int, help="weight bound")
    sp.add_argument("--subsets", nargs=2, type=int, metavar=("N", "K"),
                    help="k-subsets of {1..n} in difference representation")
    sp.add_argument("--multisets-freq", nargs=2, type=int, metavar=("N", "K"),
                    help="k-multisets of {1..n} in shorthand frequency representation")
    sp.add_argument("--multisets-diff", nargs=2, type=int, metavar=("N", "K"),
                    help="k-multisets of {1..n} in difference representation")


def _resolve_cell(args) -> _Cell:
    groups = []
    if args.t is not None or args.n is not None or args.w is not None:
        groups.append("words")
    if args.subsets is not None:
        groups.append("subsets")
    if args.multisets_freq is not None:
        groups.append("multisets-freq")
    if args.multisets_diff is not None:
        groups.append("multisets-diff")
    if len(groups) != 1:
        raise CliError(
            "choose exactly one of --t/--n/--w, --subsets, --multisets-freq, --multisets-diff"
        )
    kind = groups[0]
    if kind == "words":
        if args.t is None or args.n is None or args.w is None:
            raise CliError("--t, --n and --w must all be given")
        params = ParamSet(args.t, args.n, args.w)
        return _Cell("words", params, None, 0, None, params.universe_size)
    if kind == "subsets":
        n, k = args.subsets
        if not 1 <= k <= n:
            raise CliError(f"subsets need 1 <= k <= n, got n={n} k={k}")
        return _Cell(kind, ParamSet(n - k + 1, k, n - k), (n, k), 1,
                     SCHEME_SUBSET_DIFF, comb(n, k))
    n, k = args.multisets_freq if kind == "multisets-freq" else args.multisets_diff
    if n < 2 or k < 2:
        raise CliError(f"multiset cycles assume n, k >= 2, got n={n} k={k}")
    if kind == "multisets-freq":
        return _Cell(kind, ParamSet(k + 1, n - 1, k), (n, k), 0,
                     SCHEME_MULTISET_FREQ, comb(n + k - 1, k))
    return _Cell(kind, ParamSet(n, k, n - 1), (n, k), 0,
                 SCHEME_MULTISET_DIFF, comb(n + k - 1, k))


def _resolve_seed(args, cell: _Cell) -> tuple[int, ...] | None:
    """Displayed-alphabet seed window -> engine-alphabet window, or None."""
    if getattr(args, "seed_window", None) is None:
        return None
    if args.engine == "reverse-colex":
        raise CliError("--seed-window needs a successor engine (grandmama or msr)")
    seed = _parse_symbols(args.seed_window)
    if len(seed) != cell.params.n:
        raise CliError(f"seed window must have length {cell.params.n}, got {len(seed)}")
    if cell.shift and any(s < cell.shift for s in seed):
        raise CliError(f"seed symbols for {cell.kind} start at {cell.shift}")
    return tuple(s - cell.shift for s in seed)


# --- generate -------------------------------------------------------------


def _symbol_chunks(cell: _Cell, engine: str, seed: tuple[int, ...] | None, limit: int | None,
                   stats: GenStats | None) -> tuple[str, Iterator[Sequence[int]]]:
    """(engine tag, iterator over chunks of engine-alphabet symbols of the full cycle)."""
    params = cell.params
    # a successor engine stops at the last kept symbol, so its counters match the output
    steps = None if limit is None or limit >= params.universe_size else max(limit - params.n, 0)
    if engine == "grandmama":
        if seed is None:
            return "grandmama-concat", iter_concat_prefixes(params, stats)
        return "grandmama-successor", iter_successor_chunks(params, seed, steps, stats)
    if engine == "msr":
        return "msr", iter_msr_chunks(params, seed, steps, stats)
    cyc = generate_reverse_colex(params, stats)  # seeds were refused by _resolve_seed
    return cyc.engine, iter((cyc.symbols,))


def _take(chunks: Iterator[Sequence[int]], limit: int) -> Iterator[Sequence[int]]:
    """The first ``limit`` symbols of a chunk stream, still in chunks."""
    for chunk in chunks:
        if len(chunk) >= limit:
            yield chunk[:limit]
            return
        limit -= len(chunk)
        yield chunk


def _emit_stream(chunks: Iterator[Sequence[int]], fmt: str, names: list[str], meta: dict,
                 out) -> int:
    """Write the symbols as one line, RENDER_BATCH symbols per render call and write.

    ``names[s]`` is the displayed text of engine symbol s, display shift included.
    """
    if fmt == "compact":
        table = bytes.maketrans(bytes(range(len(names))), "".join(names).encode())
        sep, tail = "", "\n"

        def render(batch):
            return bytes(batch).translate(table).decode()
    else:
        sep, tail = (" ", "\n") if fmt == "delimited" else (", ", "]}\n")

        def render(batch):
            return sep.join(map(names.__getitem__, batch))
    if fmt == "json":
        head = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in meta.items())
        out.write("{" + head + ', "symbols": [')
    written = 0
    lead = ""
    batch: list[int] = []
    extend = batch.extend
    for chunk in chunks:
        extend(chunk)
        if len(batch) >= RENDER_BATCH:
            out.write(lead + render(batch))
            written += len(batch)
            batch.clear()
            lead = sep
    if batch:
        out.write(lead + render(batch))
        written += len(batch)
    out.write(tail)
    return written


def cmd_generate(args) -> int:
    cell = _resolve_cell(args)
    seed = _resolve_seed(args, cell)
    if args.limit is not None and args.limit < 0:
        raise CliError("--limit cannot be negative")
    top = cell.params.t - 1 + cell.shift
    if args.format == "compact" and top > 9:
        raise CliError(f"compact format needs all symbols < 10, but they reach {top}")

    stats = GenStats() if args.stats else None
    tag, chunks = _symbol_chunks(cell, args.engine, seed, args.limit, stats)
    emit_len = cell.length if args.limit is None else min(cell.length, args.limit)
    if args.limit is not None:
        chunks = _take(chunks, args.limit)

    meta = {
        "engine": tag,
        "scheme": None if cell.scheme is None else
                  {"name": cell.scheme, "n": cell.nk[0], "k": cell.nk[1]},
        "t": cell.params.t,
        "n": cell.params.n,
        "w": cell.params.w_eff,
        "length": emit_len,
    }
    names = [str(s + cell.shift) for s in range(cell.params.t)]
    written = _emit_stream(chunks, args.format, names, meta, sys.stdout)
    if stats is not None:
        # count what actually went out: the concat engine flushes its own
        # symbol tally only on completion, so it lags when --limit cuts in.
        print(
            f"stats: symbols={written} necklace_tests={stats.necklace_tests}"
            f" comparisons={stats.comparisons}",
            file=sys.stderr,
        )
    return 0


# --- decode / verify ------------------------------------------------------


def _build_cycle(cell: _Cell, engine: str, seed: tuple[int, ...] | None) -> UCycle:
    tag, chunks = _symbol_chunks(cell, engine, seed, None, None)
    symbols = chain.from_iterable(chunks)
    if cell.shift:
        symbols = (s + cell.shift for s in symbols)
    return UCycle(tuple(symbols), cell.params, tag, scheme=cell.scheme, scheme_params=cell.nk)


def cmd_decode(args) -> int:
    cell = _resolve_cell(args)
    cycle = _build_cycle(cell, args.engine, _resolve_seed(args, cell))
    obj = decode_window(cycle, args.position)
    if cell.scheme is None:
        payload = {"kind": "word", "t": obj.t, "symbols": list(obj.symbols)}
    else:
        payload = obj.to_dict()
    print(json.dumps(payload))
    return 0


_AGAINST_FOR_KIND = {
    "words": ("words", "fixed-weight"),
    "subsets": ("subsets",),
    "multisets-freq": ("multisets-freq",),
    "multisets-diff": ("multisets-diff",),
}


def cmd_verify(args) -> int:
    cell = _resolve_cell(args)
    against = args.against or _AGAINST_FOR_KIND[cell.kind][0]
    if against not in _AGAINST_FOR_KIND[cell.kind]:
        raise CliError(f"--against {against} does not fit the {cell.kind} parameters")

    # these universes have cell.length elements, so refuse before generating or enumerating
    if against != "fixed-weight" and cell.length > args.max_universe:
        raise CliError(f"universe has {cell.length} elements, above the cap {args.max_universe}")
    if args.sequence is not None:
        symbols = _parse_symbols(args.sequence)
        cycle = UCycle(symbols, cell.params, "user", scheme=cell.scheme, scheme_params=cell.nk)
    else:
        cycle = _build_cycle(cell, args.engine, _resolve_seed(args, cell))

    p = cell.params
    if against == "words":
        universe = enumerate_universe("bounded_words", t=p.t, n=p.n, w=p.w_eff)
        report = verify_universal_cycle(cycle, universe, max_universe=args.max_universe)
    elif against == "fixed-weight":
        universe = enumerate_universe("fixed_weight_words", t=p.t, length=p.n + 1, weight=p.w_eff)
        report = verify_listing(fixed_weight_expand(cycle), universe, max_universe=args.max_universe)
    else:
        n, k = cell.nk
        kind = {"subsets": "subset_diff", "multisets-freq": "multiset_freq",
                "multisets-diff": "multiset_diff"}[against]
        universe = enumerate_universe(kind, n=n, k=k)
        report = verify_universal_cycle(cycle, universe, max_universe=args.max_universe)

    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


# --- tree / conjecture ----------------------------------------------------


def cmd_tree(args) -> int:
    params = ParamSet(args.t, args.n, args.w)
    kind = FeedbackKind.PCR if args.kind == "pcr" else FeedbackKind.MSR
    tree = build_tree(kind, params, max_nodes=args.max_nodes)
    if args.format == "dot":
        print(tree.to_dot())
    else:
        print(json.dumps(tree.to_json_dict(), indent=2))
    return 0


def _conjecture_line(report) -> str:
    base = f"t={report.t} n={report.n} w={report.w}"
    if report.holds:
        return f"{base} equal length={report.length_msr}"
    return (f"{base} DIVERGES lengths={report.length_msr}/{report.length_reverse_colex}"
            f" first_divergence={report.first_divergence}")


def cmd_conjecture(args) -> int:
    cells = []
    if args.max_tn is not None:
        if args.t is not None or args.n is not None or args.w is not None:
            raise CliError("give either --max-tn or a single --t/--n/--w cell, not both")
        for t in range(2, args.max_tn + 1):
            for n in range(1, args.max_tn + 1):
                for w in range(t):
                    cells.append(ParamSet(t, n, w))
    else:
        if args.t is None or args.n is None or args.w is None:
            raise CliError("--t, --n and --w must all be given (or use --max-tn)")
        cells.append(ParamSet(args.t, args.n, args.w))

    divergent = 0
    for params in cells:
        report = check_conjecture(params)
        print(_conjecture_line(report))
        if not report.holds:
            divergent += 1
    if len(cells) > 1:
        print(f"checked {len(cells)} cells: {len(cells) - divergent} equal, {divergent} divergent")
    return 0


# --- wiring ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _OneLineParser(prog="bwcycles",
                            description="universal cycles for weight-bounded words")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_OneLineParser)

    g = sub.add_parser("generate", help="emit a universal cycle")
    _add_cell_flags(g)
    g.add_argument("--engine", choices=ENGINES, default="grandmama")
    g.add_argument("--format", choices=("compact", "delimited", "json"), default="delimited")
    g.add_argument("--limit", type=int, default=None, help="stop after this many symbols")
    g.add_argument("--seed-window", default=None,
                   help="start window for successor engines (displayed alphabet)")
    g.add_argument("--stats", action="store_true", help="print generator counters to stderr")
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("decode", help="decode one cyclic window to its object")
    _add_cell_flags(d)
    d.add_argument("--engine", choices=ENGINES, default="grandmama")
    d.add_argument("--position", type=int, required=True)
    d.add_argument("--seed-window", default=None)
    d.set_defaults(func=cmd_decode)

    v = sub.add_parser("verify", help="brute-force check a cycle against its universe")
    _add_cell_flags(v)
    v.add_argument("--engine", choices=ENGINES, default="grandmama")
    v.add_argument("--against",
                   choices=("words", "fixed-weight", "subsets", "multisets-freq", "multisets-diff"),
                   default=None, help="universe to check (defaults to the parameter kind)")
    v.add_argument("--sequence", default=None,
                   help="verify this sequence instead of generating one")
    v.add_argument("--seed-window", default=None)
    v.add_argument("--max-universe", type=int, default=10**6,
                   help="refuse universes larger than this")
    v.set_defaults(func=cmd_verify)

    tr = sub.add_parser("tree", help="dump a cycle-joining tree as DOT or JSON")
    tr.add_argument("--kind", choices=("pcr", "msr"), required=True)
    tr.add_argument("--t", type=int, required=True)
    tr.add_argument("--n", type=int, required=True)
    tr.add_argument("--w", type=int, required=True)
    tr.add_argument("--format", choices=("dot", "json"), default="dot")
    tr.add_argument("--max-nodes", type=int, default=10**6)
    tr.set_defaults(func=cmd_tree)

    c = sub.add_parser("conjecture", help="compare the register engine against reverse colex")
    c.add_argument("--t", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--w", type=int)
    c.add_argument("--max-tn", type=int, default=None,
                   help="sweep all cells with t, n up to this bound and w < t")
    c.set_defaults(func=cmd_conjecture)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
