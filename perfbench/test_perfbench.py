"""Self-tests of the benchmark harness: checks catch bad output, seeds reproduce."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

from harness import ROOT, Tracer, require_source, run_job, tail

require_source()

from bwcycles.cli import main as cli_main  # noqa: E402
import run  # noqa: E402
from workloads import rounds  # noqa: E402

with open(run.EXPECTED) as fh:
    RECORDED = json.load(fh)
OFF = Tracer(False)


def _corrupting(edit):
    """A stand-in for cli.main whose stdout passes through ``edit``."""
    def fake_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        sys.stdout.write(edit(buf.getvalue()))
        return code
    return fake_main


def _swap_middle(text):
    i = len(text) // 2
    while text[i] == text[i + 1]:
        i += 1
    return text[:i] + text[i + 1] + text[i] + text[i + 2:]


def test_recorded_outputs_pass_and_corrupted_ones_fail():
    # seed 0 has recorded digests, so even a swap of two symbols is caught
    jobs = next(rounds("query-mix", 0, RECORDED))
    for job in jobs:
        assert run_job(cli_main, job, OFF).error is None, job.argv
        assert run_job(_corrupting(_swap_middle), job, OFF).error is not None, job.argv


def test_corruption_is_caught_without_recorded_digests():
    jobs = next(rounds("query-mix", 10**6, RECORDED))
    for job in jobs:
        assert run_job(_corrupting(lambda s: "x" + s[1:]), job, OFF).error is not None, job.argv
        assert run_job(_corrupting(lambda s: s[:-2] + "\n"), job, OFF).error is not None, job.argv


def test_stream_digest_catches_a_swap():
    job = next(rounds("msr-stream", 0, RECORDED))[0]
    assert run_job(cli_main, job, OFF).error is None
    assert run_job(_corrupting(_swap_middle), job, OFF).error is not None


def test_crash_and_exit_code_are_failures():
    job = next(rounds("query-mix", 0, RECORDED))[0]

    def crash(argv):
        raise RuntimeError("boom")
    assert "raised" in run_job(crash, job, OFF).error
    assert run_job(lambda argv: 2, job, OFF).error.startswith("exit 2")


def test_query_mix_is_reproducible_from_its_seed():
    def draw(seed):
        it = rounds("query-mix", seed, RECORDED)
        return [job.argv for _ in range(3) for job in next(it)]
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_self_time_excludes_children():
    tr = Tracer(True)
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    s = tr.summary()
    outer = tr.spans[0][2] - tr.spans[0][1]
    assert s["outer"]["count"] == s["inner"]["count"] == 1
    assert abs(s["outer"]["self_s"] + s["inner"]["total_s"] - outer) < 1e-9
    assert tr.spans[1][3] == 0


def test_every_declared_metric_is_reported(capsys, monkeypatch):
    monkeypatch.setattr(run, "PROBE_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "query-mix", "--seed", "3", "--seconds", "0.1",
                           "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "concat-stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "{" not in proc.stdout
