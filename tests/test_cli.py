import json
import os
import subprocess
import sys
from itertools import chain, islice
from pathlib import Path

import pytest

from bwcycles import cli, grandmama, msr
from bwcycles.cli import main
from bwcycles.combmaps import (
    ENCODINGS,
    decode_window,
    ucycle_multisets_diff,
    ucycle_multisets_freq,
    ucycle_subsets,
)
from bwcycles.grandmama import (
    GenStats,
    UCycle,
    generate_by_successor,
    generate_concat,
    iter_concat_prefixes,
)
from bwcycles.msr import generate_msr, generate_reverse_colex, iter_reverse_colex_prefixes
from bwcycles.words import ParamSet, Word, parse_symbols

SRC = Path(__file__).resolve().parents[1] / "src"
FORMATS = ("compact", "delimited", "json")


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_compact_goldens(capsys):
    code, out, _ = run(capsys, "generate", "--engine", "grandmama", "--t", "5", "--n", "3",
                       "--w", "4", "--format", "compact")
    assert code == 0 and out == "00010111021031002012112022003013004\n"
    code, out, _ = run(capsys, "generate", "--subsets", "5", "3", "--format", "compact")
    assert code == 0 and out == "1112122113\n"
    code, out, _ = run(capsys, "generate", "--engine", "msr", "--t", "4", "--n", "3",
                       "--w", "3", "--format", "compact")
    assert code == 0 and out == "00030012010200210111\n"


def test_generate_formats_agree(capsys):
    _, compact, _ = run(capsys, "generate", "--t", "3", "--n", "3", "--w", "2",
                        "--format", "compact")
    _, delim, _ = run(capsys, "generate", "--t", "3", "--n", "3", "--w", "2")
    _, as_json, _ = run(capsys, "generate", "--t", "3", "--n", "3", "--w", "2",
                        "--format", "json")
    symbols = [int(c) for c in compact.strip()]
    assert [int(p) for p in delim.split()] == symbols
    payload = json.loads(as_json)
    assert payload["symbols"] == symbols
    assert payload["length"] == len(symbols) == 10
    assert payload["engine"] == "grandmama-concat"
    assert payload["scheme"] is None


def test_generate_json_scheme_block(capsys):
    _, out, _ = run(capsys, "generate", "--multisets-diff", "4", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["scheme"] == {"name": "multiset_difference", "n": 4, "k": 4}
    assert payload["length"] == 35


def test_generate_limit(capsys):
    code, out, _ = run(capsys, "generate", "--t", "5", "--n", "3", "--w", "4",
                       "--limit", "7", "--format", "compact")
    assert code == 0 and out == "0001011\n"
    _, out, _ = run(capsys, "generate", "--t", "5", "--n", "3", "--w", "4",
                    "--limit", "0", "--format", "compact")
    assert out == "\n"


def test_generate_seed_window_rotates(capsys):
    _, canonical, _ = run(capsys, "generate", "--engine", "msr", "--t", "4", "--n", "3",
                          "--w", "3", "--format", "compact")
    _, seeded, _ = run(capsys, "generate", "--engine", "msr", "--t", "4", "--n", "3",
                       "--w", "3", "--seed-window", "111", "--format", "compact")
    doubled = canonical.strip() * 2
    assert seeded.strip() in doubled
    assert seeded.strip().startswith("111")
    # grandmama with a seed switches to the successor engine, same cycle
    _, seeded, _ = run(capsys, "generate", "--t", "5", "--n", "3", "--w", "4",
                       "--seed-window", "0,0,4", "--format", "compact")
    _, canonical, _ = run(capsys, "generate", "--t", "5", "--n", "3", "--w", "4",
                          "--format", "compact")
    assert seeded.strip() in canonical.strip() * 2


def test_generate_seed_window_subsets_displayed_alphabet(capsys):
    _, canonical, _ = run(capsys, "generate", "--subsets", "6", "3", "--engine", "msr",
                          "--format", "compact")
    code, seeded, _ = run(capsys, "generate", "--subsets", "6", "3", "--engine", "msr",
                          "--seed-window", "114", "--format", "compact")
    assert code == 0
    assert seeded.strip() in canonical.strip() * 2
    # subset windows never contain a 0
    code, _, err = run(capsys, "generate", "--subsets", "6", "3", "--seed-window", "110")
    assert code == 2 and err.startswith("error:")


def test_generate_usage_errors(capsys):
    cases = [
        ("generate", "--t", "3", "--n", "3"),  # missing --w
        ("generate", "--t", "3", "--n", "3", "--w", "2", "--subsets", "5", "3"),
        ("generate", "--t", "12", "--n", "2", "--w", "3", "--format", "compact"),
        ("generate", "--engine", "reverse-colex", "--t", "3", "--n", "3", "--w", "2",
         "--seed-window", "001"),
        ("generate", "--t", "3", "--n", "3", "--w", "2", "--seed-window", "01"),
        ("generate", "--t", "3", "--n", "3", "--w", "2", "--limit", "-1"),
        ("generate", "--subsets", "3", "5"),
        ("generate", "--multisets-freq", "4", "1"),
        ("generate", "--engine", "msr", "--t", "3", "--n", "2", "--w", "4"),  # w_eff >= t
        ("generate",),
    ]
    # successor engines check the seed once, before anything is written; json
    # output would show a header written ahead of the check
    for engine in ("grandmama", "msr"):
        for fmt in ("compact", "json"):
            for seed in ("0,0,9", "3,3,0"):  # a symbol outside 0..4; weight 6 > 4
                cases.append(("generate", "--engine", engine, "--t", "5", "--n", "3", "--w", "4",
                              "--seed-window", seed, "--format", fmt))
    for case in cases:
        code, out, err = run(capsys, *case)
        assert code == 2, case
        assert err.startswith("error:") and err.count("\n") == 1, case
        assert out == "", case


def test_word_from_string_reads_what_the_cli_reads(capsys):
    assert cli.parse_symbols is parse_symbols
    canonical = run(capsys, "generate", "--t", "5", "--n", "3", "--w", "4",
                    "--seed-window", "013")
    for text in ("013", "0,1,3", "0 1 3", "0,,1,,3", " 0 , 1 ,3 ", ",0,1,3,"):
        assert Word.from_string(text, 5) == Word((0, 1, 3), 5), text
        assert run(capsys, "generate", "--t", "5", "--n", "3", "--w", "4",
                   "--seed-window", text) == canonical, text
    for text in ("", "  ", "0;1;3", "a", "0,a,3", "0\t1\t3", "01.3"):
        with pytest.raises(ValueError) as refused:
            Word.from_string(text, 5)
        assert str(refused.value) == f"cannot parse symbols from {text.strip()!r}"
        code, out, err = run(capsys, "generate", "--t", "5", "--n", "3", "--w", "4",
                             "--seed-window", text)
        assert (code, out, err) == (2, "", f"error: {refused.value}\n"), text


def test_unknown_flag_and_help(capsys):
    code, _, err = run(capsys, "generate", "--frobnicate")
    assert code == 2 and err.startswith("error:")
    assert main(["--help"]) == 0


def test_decode(capsys):
    code, out, _ = run(capsys, "decode", "--subsets", "6", "3", "--position", "0")
    assert code == 0
    assert json.loads(out) == {"kind": "subset", "n": 6, "k": 3, "elements": [1, 2, 3]}
    _, out, _ = run(capsys, "decode", "--multisets-freq", "4", "4", "--position", "0")
    assert json.loads(out)["elements"] == [4, 4, 4, 4]
    _, out, _ = run(capsys, "decode", "--t", "5", "--n", "3", "--w", "4", "--position", "5")
    assert json.loads(out) == {"kind": "word", "t": 5, "symbols": [1, 1, 1]}
    code, _, err = run(capsys, "decode", "--subsets", "6", "3", "--position", "20")
    assert code == 2 and err.startswith("error:")


def test_verify_ok_paths(capsys):
    code, out, _ = run(capsys, "verify", "--t", "5", "--n", "3", "--w", "4")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "verify", "--engine", "msr", "--t", "5", "--n", "3", "--w", "4",
                       "--against", "fixed-weight")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "verify", "--subsets", "6", "3", "--engine", "msr")
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["expected_count"] == 20
    code, out, _ = run(capsys, "verify", "--engine", "reverse-colex", "--t", "4", "--n", "3",
                       "--w", "3")
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_user_sequence(capsys):
    code, out, _ = run(capsys, "verify", "--t", "2", "--n", "2", "--w", "2",
                       "--sequence", "0011")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "verify", "--t", "2", "--n", "2", "--w", "2",
                       "--sequence", "0010")
    report = json.loads(out)
    assert code == 1
    assert report["missing"] == [[1, 1]]
    assert report["duplicated"] == [{"word": [0, 0], "count": 2}]
    # at w = t the expansion drops one zero of the all-zero window, which 0112 lacks
    code, out, err = run(capsys, "verify", "--t", "3", "--n", "2", "--w", "3",
                         "--against", "fixed-weight", "--sequence", "0112")
    assert (code, out, err) == (
        2, "", "error: w = t expansion needs the all-zero window in the cycle\n")


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--subsets", "6", "3", "--against", "words")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "verify", "--t", "4", "--n", "8", "--w", "8",
                       "--max-universe", "100")
    assert code == 2 and "cap" in err


def test_verify_sparse_cell_enumerates_only_its_universe(capsys):
    # 165 words of weight <= 3 among 10^8 words of length 8
    code, out, _ = run(capsys, "verify", "--engine", "msr", "--t", "10", "--n", "8", "--w", "3")
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["window_count"] == 165


def test_verify_report_exact_past_saturation(capsys):
    # the oracle's per-word counters saturate, the reported counts do not
    for zeros in (8, 300):
        code, out, _ = run(capsys, "verify", "--t", "2", "--n", "3", "--w", "3",
                           "--sequence", "0" * zeros)
        report = json.loads(out)
        assert code == 1 and report["duplicated"] == [{"word": [0, 0, 0], "count": zeros}]
        assert report["window_count"] == zeros and len(report["missing"]) == 7


def test_verify_lists_windows_with_foreign_symbols(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--t", "2", "--n", "3", "--w", "3",
                       "--sequence", "0,1,-1")
    assert code == 1 and json.loads(out)["unexpected"] == [[-1, 0, 1], [0, 1, -1], [1, -1, 0]]

    # an engine that emits t, which as a base-t digit would carry into a valid code;
    # (3, 3, 4) is counted in a byte array and (10, 3, 2) in a dict
    real = cli.engine_chunks

    def buggy(params, engine, start=None, steps=None, stats=None):
        tag, chunks = real(params, engine, start, steps, stats)
        symbols = list(chain.from_iterable(chunks))
        symbols[5] = params.t
        return tag, iter([symbols[:4], [], symbols[4:]])

    monkeypatch.setattr(cli, "engine_chunks", buggy)
    for t, w in ((3, 4), (10, 2)):
        symbols = list(generate_concat(ParamSet(t, 3, w)).symbols)
        symbols[5] = t
        code, out, _ = run(capsys, "verify", "--t", str(t), "--n", "3", "--w", str(w))
        report = json.loads(out)
        assert code == 1 and report["window_count"] == len(symbols)
        assert report["unexpected"] == sorted(symbols[i:i + 3] for i in (3, 4, 5))


def test_verify_cap_refused_before_any_work(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran past the cap")

    for name in ("engine_chunks", "enumerate_universe", "verify_stream", "verify_listing"):
        monkeypatch.setattr(cli, name, must_not_run)
    for argv, size in [(["--t", "4", "--n", "11", "--w", "16"], 2097152),
                       (["--subsets", "20", "10"], 184756),
                       (["--multisets-freq", "12", "9"], 167960),
                       (["--multisets-diff", "12", "9", "--engine", "msr"], 167960),
                       (["--t", "4", "--n", "3", "--w", "3", "--sequence", "0123"], 20),
                       # length-4 words of weight exactly 3 (or 4, or 0), not the cell's universe
                       (["--t", "4", "--n", "3", "--w", "3", "--against", "fixed-weight"], 20),
                       (["--t", "4", "--n", "3", "--w", "4", "--against", "fixed-weight"], 31),
                       (["--t", "3", "--n", "5", "--w", "0", "--against", "fixed-weight",
                         "--sequence", "0"], 1)]:
        cap = "0" if size == 1 else "19"
        code, out, err = run(capsys, "verify", *argv, "--max-universe", cap)
        expected = f"error: universe has {size} elements, above the cap {cap}\n"
        assert (code, out, err) == (2, "", expected)
    # fixed-weight expansion needs w <= t, which the flags alone decide
    code, out, err = run(capsys, "verify", "--t", "4", "--n", "9", "--w", "13",
                         "--against", "fixed-weight")
    assert (code, out, err) == (2, "", "error: fixed-weight expansion needs w <= t, got w=13 t=4\n")


def test_tree_outputs(capsys):
    code, out, _ = run(capsys, "tree", "--kind", "pcr", "--t", "5", "--n", "3", "--w", "4")
    assert code == 0 and out.startswith("digraph") and out.count("->") == 12
    code, out, _ = run(capsys, "tree", "--kind", "msr", "--t", "5", "--n", "3", "--w", "4",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0 and len(payload["nodes"]) == 10
    code, out, _ = run(capsys, "tree", "--kind", "pcr", "--t", "2", "--n", "2", "--w", "2")
    assert out.count("->") == 2
    code, _, err = run(capsys, "tree", "--kind", "msr", "--t", "3", "--n", "3", "--w", "3")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "tree", "--kind", "pcr", "--t", "4", "--n", "9", "--w", "20",
                       "--max-nodes", "10")
    assert code == 2 and err.startswith("error:")
    # the scan cap counts the weight-bounded words, not 4^12 or 10^7
    code, out, _ = run(capsys, "tree", "--kind", "pcr", "--t", "4", "--n", "12", "--w", "1")
    assert code == 0 and out.count("->") == 1
    code, out, _ = run(capsys, "tree", "--kind", "msr", "--t", "10", "--n", "6", "--w", "2")
    assert code == 0 and out.count("->") == 3


def test_tree_refuses_scans_past_the_enumerator_limit(capsys):
    # 23,242,039 words of weight <= 7 pass the node cap's 40 * 10^6 bound
    code, out, err = run(capsys, "tree", "--kind", "pcr", "--t", "2", "--n", "40", "--w", "7")
    assert code == 2 and out == ""
    assert err == ("error: tree would scan 23242039 words, above the 20000000-word limit"
                   " of the necklace scan\n")


def test_conjecture_single_and_sweep(capsys, monkeypatch):
    code, out, _ = run(capsys, "conjecture", "--t", "5", "--n", "3", "--w", "4")
    assert code == 0 and out == "t=5 n=3 w=4 equal length=35\n"
    code, out, _ = run(capsys, "conjecture", "--max-tn", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "checked 15 cells: 15 equal, 0 divergent"
    assert all(" equal " in line for line in lines[:-1])
    code, _, err = run(capsys, "conjecture", "--max-tn", "3", "--t", "2")
    assert code == 2 and err.startswith("error:")
    # a sweep below t = 2 has no cell: refused, not an empty success
    for bound in ("1", "0", "-3"):
        code, out, err = run(capsys, "conjecture", "--max-tn", bound)
        assert (code, out, err) == (2, "", f"error: --max-tn must be at least 2, got {bound}\n")
    # the smallest sweep still prints its summary
    code, out, _ = run(capsys, "conjecture", "--max-tn", "2")
    assert code == 0 and out.splitlines()[-1] == "checked 4 cells: 4 equal, 0 divergent"
    code, _, err = run(capsys, "conjecture", "--t", "3", "--n", "2", "--w", "3")
    assert code == 2  # w >= t has no register cycle
    # 8^9 words of length n+1: the reverse-colex side streams instead of scanning them
    code, out, err = run(capsys, "conjecture", "--t", "8", "--n", "8", "--w", "7")
    assert (code, out, err) == (0, "t=8 n=8 w=7 equal length=6435\n", "")
    code, out, err = run(capsys, "conjecture", "--n", "3")
    assert (code, out, err) == (2, "", "error: --t, --n and --w must all be given (or use --max-tn)\n")

    # a divergent cell is printed as such and counted in the sweep's summary
    real = msr.iter_reverse_colex_prefixes

    def one_cell_changed(params, stats=None):
        symbols = [s for chunk in real(params, stats) for s in chunk]
        if (params.t, params.n, params.w) == (3, 2, 2):
            symbols[4] = (symbols[4] + 1) % params.t
        return iter([symbols])

    monkeypatch.setattr(msr, "iter_reverse_colex_prefixes", one_cell_changed)
    code, out, _ = run(capsys, "conjecture", "--max-tn", "3")
    lines = out.strip().splitlines()
    assert code == 0 and lines[-1] == "checked 15 cells: 14 equal, 1 divergent"
    assert [line for line in lines if "DIVERGES" in line] == [
        "t=3 n=2 w=2 DIVERGES lengths=6/6 first_divergence=(4, 1, 2)"
    ]


def _reverse_colex_head(p, stats, limit):
    """The first ``limit`` symbols of the reverse-colex walk, cut as the CLI cuts them."""
    chunks = iter_reverse_colex_prefixes(p, stats)
    head = tuple(chain.from_iterable(cli._take(chunks, limit)))
    chunks.close()
    return UCycle(head, p, "reverse-colex")


def test_generate_stats_on_stderr(capsys):
    code, out, err = run(capsys, "generate", "--t", "5", "--n", "3", "--w", "4",
                         "--format", "compact", "--stats")
    assert code == 0
    assert out.strip() == "00010111021031002012112022003013004"
    assert err.startswith("stats: symbols=35 necklace_tests=")

    # symbols reflects what was emitted, not engine-internal bookkeeping
    code, out, err = run(capsys, "generate", "--t", "5", "--n", "3", "--w", "4",
                         "--format", "compact", "--stats", "--limit", "5")
    assert code == 0 and out.strip() == "00010"
    assert err.startswith("stats: symbols=5 ")

    # a successor or reverse-colex run counts exactly what the library does for the
    # same cycle; a cut concatenation walk stops after the chunk that reaches the limit.
    # Unseeded msr streams the reverse-colex walk, seeded msr runs h2.
    p = ParamSet(5, 3, 4)
    for flags, build in [
        (("--engine", "msr"), lambda stats: generate_reverse_colex(p, stats=stats)),
        (("--engine", "msr", "--seed-window", "0,0,4"),
         lambda stats: generate_msr(p, start=(0, 0, 4), stats=stats)),
        (("--seed-window", "0,0,4"),
         lambda stats: generate_by_successor(p, start=(0, 0, 4), stats=stats)),
        (("--seed-window", "0,0,4", "--limit", "10"),
         lambda stats: generate_by_successor(p, start=(0, 0, 4), steps=10 - p.n, stats=stats)),
        (("--engine", "reverse-colex"), lambda stats: generate_reverse_colex(p, stats=stats)),
        (("--engine", "reverse-colex", "--limit", "10"),
         lambda stats: _reverse_colex_head(p, stats, 10)),
    ]:
        stats = GenStats()
        cycle = build(stats)
        code, out, err = run(capsys, "generate", "--t", "5", "--n", "3", "--w", "4",
                             "--format", "compact", "--stats", *flags)
        assert code == 0 and out.strip() == str(cycle), flags
        assert err == (f"stats: symbols={len(cycle)} necklace_tests={stats.necklace_tests}"
                       f" comparisons={stats.comparisons}\n"), flags


def test_generate_stats_across_successor_chunks(capsys):
    # 10,000 symbols take the successor loop past its 4096-symbol chunk twice
    p, limit = ParamSet(10, 7, 9), 10_000
    assert p.universe_size > limit > 2 * grandmama.SUCCESSOR_CHUNK
    for flags, build in [
        (("--engine", "msr"), lambda stats: _reverse_colex_head(p, stats, limit)),
        (("--engine", "msr", "--seed-window", "0,1,0,2,0,0,3"),
         lambda stats: generate_msr(p, start=(0, 1, 0, 2, 0, 0, 3), steps=limit - p.n,
                                    stats=stats)),
        (("--seed-window", "0,1,0,2,0,0,3"),
         lambda stats: generate_by_successor(p, start=(0, 1, 0, 2, 0, 0, 3), steps=limit - p.n,
                                             stats=stats)),
    ]:
        stats = GenStats()
        cycle = build(stats)
        code, out, err = run(capsys, "generate", "--t", "10", "--n", "7", "--w", "9",
                             "--format", "compact", "--stats", "--limit", str(limit), *flags)
        assert code == 0 and out.strip() == str(cycle), flags
        assert len(cycle) == limit, flags
        if "--seed-window" in flags:  # a successor run stops at the last kept symbol
            assert stats.symbols == limit, flags
        assert err == (f"stats: symbols={limit} necklace_tests={stats.necklace_tests}"
                       f" comparisons={stats.comparisons}\n"), flags


def test_alphabet_wider_than_a_byte(capsys):
    cell = ("--multisets-diff", "300", "2")
    for engine in ("grandmama", "msr"):
        code, out, _ = run(capsys, "verify", *cell, "--engine", engine)
        assert code == 0 and json.loads(out)["ok"] is True, engine
        code, out, _ = run(capsys, "generate", *cell, "--engine", engine)
        assert code == 0
        canonical = out.split()
        assert len(canonical) == 45_150 and max(map(int, canonical)) == 299
        doubled = canonical + canonical
        for i in (1, canonical.index("256"), len(canonical) - 1):
            seed = ",".join(doubled[i : i + 2])
            code, out, _ = run(capsys, "generate", *cell, "--engine", engine, "--seed-window", seed)
            assert code == 0 and out.split() == doubled[i : i + len(canonical)], (engine, seed)


def _naive_render(cycle: UCycle, fmt: str, limit: int | None) -> str:
    """The expected output of ``generate``, rendered one symbol at a time."""
    shown = list(cycle.symbols[:limit])
    if fmt == "json":
        scheme = None if cycle.scheme is None else {
            "name": cycle.scheme, "n": cycle.scheme_params[0], "k": cycle.scheme_params[1]}
        return json.dumps({"engine": cycle.engine, "scheme": scheme, "t": cycle.t, "n": cycle.n,
                           "w": cycle.w, "length": len(shown), "symbols": shown}) + "\n"
    return ("" if fmt == "compact" else " ").join(str(s) for s in shown) + "\n"


def _seeded(cycle: UCycle, position: int, shift: int) -> tuple[str, UCycle]:
    """(--seed-window text, library h1 cycle) for the window of ``cycle`` at ``position``."""
    seed = cycle.window(position)
    base = generate_by_successor(cycle.params, start=[s - shift for s in seed])
    return ",".join(map(str, seed)), UCycle(tuple(s + shift for s in base.symbols), cycle.params,
                                            base.engine, cycle.scheme, cycle.scheme_params)


def _words(engine):
    maker = {"grandmama": generate_concat, "msr": generate_msr,
             "reverse-colex": generate_reverse_colex}[engine]
    return maker(ParamSet(5, 4, 4))


RENDER_KINDS = [  # (cell flags, library cycle for an engine, display shift)
    (("--t", "5", "--n", "4", "--w", "4"), _words, 0),
    (("--subsets", "8", "4"), lambda engine: ucycle_subsets(8, 4, engine), 1),
    (("--multisets-freq", "4", "4"), lambda engine: ucycle_multisets_freq(4, 4, engine), 0),
    (("--multisets-diff", "4", "4"), lambda engine: ucycle_multisets_diff(4, 4, engine), 0),
]


def test_generate_matches_naive_rendering(capsys, monkeypatch):
    # small batches and chunks, so cells of 35-70 symbols cross several of each
    batch = 16
    monkeypatch.setattr(cli, "RENDER_BATCH", batch)
    monkeypatch.setattr(grandmama, "SUCCESSOR_CHUNK", 5)
    for flags, make, shift in RENDER_KINDS:
        concat = make("grandmama")
        seed, seeded = _seeded(concat, 3, shift)
        n, length = concat.n, len(concat)
        engines = [(("grandmama",), concat), (("grandmama", "--seed-window", seed), seeded),
                   (("msr",), make("msr")), (("reverse-colex",), make("reverse-colex"))]
        for engine, cycle in engines:
            assert len(cycle) == length > 2 * batch
            for fmt in FORMATS:
                for limit in (None, 0, 1, n, batch - 1, batch, batch + 1, length, length + 5):
                    args = ["generate", *flags, "--engine", *engine, "--format", fmt]
                    if limit is not None:
                        args += ["--limit", str(limit)]
                    code, out, err = run(capsys, *args)
                    assert code == 0 and err == "", args
                    assert out == _naive_render(cycle, fmt, limit), args


def test_generate_matches_naive_rendering_past_two_batches(capsys):
    p = ParamSet(4, 9, 14)
    concat = generate_concat(p)
    assert len(concat) > 2 * cli.RENDER_BATCH
    flags = ("generate", "--t", "4", "--n", "9", "--w", "14")
    for fmt in FORMATS:
        code, out, _ = run(capsys, *flags, "--format", fmt)
        assert code == 0 and out == _naive_render(concat, fmt, None), fmt
    seed, seeded = _seeded(concat, 5, 0)
    limit = cli.RENDER_BATCH + 1
    code, out, _ = run(capsys, *flags, "--seed-window", seed, "--limit", str(limit))
    assert code == 0 and out == _naive_render(seeded, "delimited", limit)


def test_decode_matches_library_at_every_position(capsys, monkeypatch):
    # small successor chunks, so windows straddle chunk boundaries
    monkeypatch.setattr(grandmama, "SUCCESSOR_CHUNK", 5)
    # (4, 4): a one-symbol cycle, shorter than its window
    subsets_4_4 = (("--subsets", "4", "4"), lambda engine: ucycle_subsets(4, 4, engine), 1)
    for flags, make, shift in [*RENDER_KINDS, subsets_4_4]:
        concat = make("grandmama")
        seed, seeded = _seeded(concat, 3 % len(concat), shift)
        engines = [(("grandmama",), concat), (("grandmama", "--seed-window", seed), seeded),
                   (("msr",), make("msr")), (("reverse-colex",), make("reverse-colex"))]
        for engine, cycle in engines:
            argv = ["decode", *flags, "--engine", *engine, "--position"]
            for position in range(len(cycle)):
                obj = decode_window(cycle, position)
                payload = (obj.to_dict() if cycle.scheme else
                           {"kind": "word", "t": obj.t, "symbols": list(obj.symbols)})
                code, out, err = run(capsys, *argv, str(position))
                assert (code, out, err) == (0, json.dumps(payload) + "\n", ""), (argv, position)
            last = len(cycle) - 1
            for position in (-1, len(cycle)):
                code, out, err = run(capsys, *argv, str(position))
                expected = f"error: position {position} outside 0..{last}\n"
                assert (code, out, err) == (2, "", expected), (argv, position)


def _h2_dispatch(params, engine, start=None, steps=None, stats=None):
    """An msr dispatch that runs h2 seeded or not: the reference for unseeded msr runs."""
    assert engine == "msr"
    return "msr", msr.iter_msr_chunks(params, start, steps, stats)


@pytest.mark.slow
def test_unseeded_msr_output_matches_h2(capsys, monkeypatch):
    # unseeded msr streams the reverse-colex walk; each argv runs as shipped and then
    # with msr forced onto h2, and stdout, stderr and the exit code must agree exactly
    argvs = []
    for t in range(1, 7):
        for n in range(1, 6):
            for w in range(t + 1):  # w = t: the refusal both paths share
                cell = ["--t", str(t), "--n", str(n), "--w", str(w), "--engine", "msr"]
                length = ParamSet(t, n, w).universe_size
                argvs.append(["verify", *cell])
                for fmt in FORMATS:
                    for limit in dict.fromkeys((0, 1, n, 4095, 4096, 4097, length, length + 5)):
                        argvs.append(["generate", *cell, "--format", fmt, "--limit", str(limit)])
                    argvs.append(["generate", *cell, "--format", fmt])
    kinds = [("subsets", n, k) for n in range(1, 8) for k in range(1, n + 1)]
    kinds += [(kind, n, k) for kind in ("multisets-freq", "multisets-diff")
              for n in range(1, 6) for k in range(1, 6)]
    for kind, n, k in kinds:
        cell = [f"--{kind}", str(n), str(k), "--engine", "msr"]
        argvs.append(["verify", *cell])
        argvs += [["generate", *cell, "--format", fmt] for fmt in FORMATS]
        argvs += [["decode", *cell, "--position", str(position)]
                  for position in range(ENCODINGS[kind].length(n, k))]
    shipped = [run(capsys, *argv) for argv in argvs]
    assert sum(code == 0 for code, _, _ in shipped) > 3000
    monkeypatch.setattr(cli, "engine_chunks", _h2_dispatch)
    for argv, got in zip(argvs, shipped):
        assert run(capsys, *argv) == got, argv


def test_generate_into_closed_pipe_exits_quietly():
    """A reader that stops early (``| head -c 20``) is not an error."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    gen = subprocess.Popen(
        [sys.executable, "-m", "bwcycles", "generate", "--t", "4", "--n", "12", "--w", "19",
         "--format", "compact"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = subprocess.run(["head", "-c", "20"], stdin=gen.stdout, capture_output=True, timeout=60)
    gen.stdout.close()
    err = gen.stderr.read()
    gen.stderr.close()
    assert gen.wait(timeout=60) == 0
    assert err == b""
    prefix = islice(chain.from_iterable(iter_concat_prefixes(ParamSet(4, 12, 19))), 20)
    assert head.stdout == "".join(map(str, prefix)).encode()
