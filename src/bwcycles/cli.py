"""Command-line front end: generate, decode, verify, tree, conjecture.

Generation streams the engine's chunks straight to stdout, rendered and
written a batch at a time, so memory stays O(n + batch) however long the cycle;
decode reads the same stream only up to the end of its window, and verify feeds
it to the oracle, which keeps n-1 of its symbols. A whole cycle is held only by
verify --sequence and verify --against fixed-weight.
Encoded kinds are read from ``combmaps.ENCODINGS`` and every engine starts
through ``combmaps.engine_chunks``. A seed window is checked before anything
is written, and --stats reports the same counters as the library run of the
same cycle: the necklace walk's for unseeded grandmama, msr and reverse-colex,
the successor rule's for a seeded run. Exit codes: 0 success, 1 verification
failure, 2 usage or parameter error (a ValueError, raised here or by the
library layer that owns the rule), and every error prints a single
"error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Sequence

from bwcycles.combmaps import (ENCODINGS, ENGINES, Encoding, engine_chunks, fixed_weight_expand,
                               fixed_weight_size)
from bwcycles.cyclejoin import FeedbackKind, build_tree
from bwcycles.grandmama import GenStats, UCycle
from bwcycles.msr import check_conjecture
from bwcycles.oracle import _check_cap, enumerate_universe, verify_listing, verify_stream
from bwcycles.words import ParamSet, parse_symbols

__all__ = ["main"]

# symbols per render call and write: per-write costs vanish, memory stays small
RENDER_BATCH = 1 << 16


class _OneLineParser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


@dataclass
class _Cell:
    """A resolved target: which word cell the engines run on and how to display it."""

    kind: str  # words, or an ENCODINGS key
    params: ParamSet
    length: int
    enc: Encoding | None = None  # the table entry of an encoded kind
    nk: tuple[int, int] | None = None
    shift: int = 0  # added to every engine symbol on output


def _add_cell_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t", type=int, help="alphabet size")
    sp.add_argument("--n", type=int, help="window length")
    sp.add_argument("--w", type=int, help="weight bound")
    for kind, enc in ENCODINGS.items():
        sp.add_argument(f"--{kind}", nargs=2, type=int, metavar=("N", "K"), help=enc.help)


def _resolve_cell(args) -> _Cell:
    given = {kind: getattr(args, kind.replace("-", "_")) for kind in ENCODINGS}
    groups = [kind for kind, nk in given.items() if nk is not None]
    if args.t is not None or args.n is not None or args.w is not None:
        groups.append("words")
    if len(groups) != 1:
        flags = ", ".join(f"--{kind}" for kind in ENCODINGS)
        raise ValueError(f"choose exactly one of --t/--n/--w, {flags}")
    kind = groups[0]
    if kind == "words":
        if args.t is None or args.n is None or args.w is None:
            raise ValueError("--t, --n and --w must all be given")
        params = ParamSet(args.t, args.n, args.w)
        return _Cell(kind, params, params.universe_size)
    enc = ENCODINGS[kind]
    n, k = given[kind]
    return _Cell(kind, enc.params(n, k), enc.length(n, k), enc, (n, k), enc.shift)


def _resolve_seed(args, cell: _Cell) -> tuple[int, ...] | None:
    """Displayed-alphabet seed window -> engine-alphabet window, or None."""
    if getattr(args, "seed_window", None) is None:
        return None
    if args.engine == "reverse-colex":
        raise ValueError("--seed-window needs a successor engine (grandmama or msr)")
    seed = parse_symbols(args.seed_window)
    if len(seed) != cell.params.n:
        raise ValueError(f"seed window must have length {cell.params.n}, got {len(seed)}")
    if cell.shift and any(s < cell.shift for s in seed):
        raise ValueError(f"seed symbols for {cell.kind} start at {cell.shift}")
    return tuple(s - cell.shift for s in seed)


# --- generate -------------------------------------------------------------


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
        raise ValueError("--limit cannot be negative")
    top = cell.params.t - 1 + cell.shift
    if args.format == "compact" and top > 9:
        raise ValueError(f"compact format needs all symbols < 10, but they reach {top}")

    stats = GenStats() if args.stats else None
    p, limit = cell.params, args.limit
    # a successor engine stops at the last kept symbol, so its counters match the output
    steps = None if limit is None or limit >= p.universe_size else max(limit - p.n, 0)
    tag, chunks = engine_chunks(p, args.engine, seed, steps, stats)
    emit_len = cell.length if limit is None else min(cell.length, limit)
    if limit is not None:
        chunks = _take(chunks, limit)

    meta = {
        "engine": tag,
        "scheme": None if cell.enc is None else
                  {"name": cell.enc.scheme, "n": cell.nk[0], "k": cell.nk[1]},
        "t": cell.params.t,
        "n": cell.params.n,
        "w": cell.params.w_eff,
        "length": emit_len,
    }
    names = [str(s + cell.shift) for s in range(cell.params.t)]
    written = _emit_stream(chunks, args.format, names, meta, sys.stdout)
    if stats is not None:
        # count what actually went out: the concatenation walks flush their
        # symbol tally only on completion, so it lags when --limit cuts in.
        print(
            f"stats: symbols={written} necklace_tests={stats.necklace_tests}"
            f" comparisons={stats.comparisons}",
            file=sys.stderr,
        )
    return 0


# --- decode / verify ------------------------------------------------------


def cmd_decode(args) -> int:
    cell = _resolve_cell(args)
    _, chunks = engine_chunks(cell.params, args.engine, _resolve_seed(args, cell))
    position, length, n = args.position, cell.length, cell.params.n
    if not 0 <= position < length:
        raise ValueError(f"position {position} outside 0..{length - 1}")
    # read only up to the window's end; the first n symbols continue a cycle that
    # ends inside the window (all of them, when the cycle is shorter than n)
    symbols = chain.from_iterable(chunks)
    head = list(islice(symbols, n))
    window = list(islice(chain(head, symbols, itertools.cycle(head)), position, position + n))
    if cell.enc is None:
        payload = {"kind": "word", "t": cell.params.t, "symbols": window}
    else:
        payload = cell.enc.decode([s + cell.shift for s in window], *cell.nk).to_dict()
    print(json.dumps(payload))
    return 0


def cmd_verify(args) -> int:
    cell = _resolve_cell(args)
    fits = ("words", "fixed-weight") if cell.enc is None else (cell.kind,)
    against = args.against or fits[0]
    if against not in fits:
        raise ValueError(f"--against {against} does not fit the {cell.kind} parameters")

    # every check the flags decide is made before a cycle is built or a universe enumerated
    p = cell.params
    _check_cap(fixed_weight_size(p) if against == "fixed-weight" else cell.length,
               args.max_universe)
    if args.sequence is not None:
        tag, chunks = "user", [parse_symbols(args.sequence)]
    else:
        tag, chunks = engine_chunks(p, args.engine, _resolve_seed(args, cell))
        if cell.shift:
            chunks = ([s + cell.shift for s in chunk] for chunk in chunks)

    if against == "fixed-weight":
        cycle = UCycle(tuple(chain.from_iterable(chunks)), p, tag)
        universe = enumerate_universe("fixed_weight_words", t=p.t, length=p.n + 1, weight=p.w_eff)
        report = verify_listing(fixed_weight_expand(cycle), universe, max_universe=args.max_universe)
    elif cell.enc is None:
        report = verify_stream(chunks, "bounded_words", t=p.t, n=p.n, w=p.w_eff,
                               max_universe=args.max_universe)
    else:
        report = verify_stream(chunks, cell.enc.universe, n=cell.nk[0], k=cell.nk[1],
                               max_universe=args.max_universe)

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
            raise ValueError("give either --max-tn or a single --t/--n/--w cell, not both")
        if args.max_tn < 2:
            raise ValueError(f"--max-tn must be at least 2, got {args.max_tn}")
        for t in range(2, args.max_tn + 1):
            for n in range(1, args.max_tn + 1):
                for w in range(t):
                    cells.append(ParamSet(t, n, w))
    else:
        if args.t is None or args.n is None or args.w is None:
            raise ValueError("--t, --n and --w must all be given (or use --max-tn)")
        cells.append(ParamSet(args.t, args.n, args.w))

    divergent = 0
    for params in cells:
        report = check_conjecture(params)
        print(_conjecture_line(report))
        if not report.holds:
            divergent += 1
    if args.max_tn is not None:
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
    v.add_argument("--against", choices=("words", "fixed-weight", *ENCODINGS),
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
