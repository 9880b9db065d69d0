"""Oracle probe run in a fresh process: ``python3 perfbench/oracle_child.py T N W``.

Builds the concat cycle of the cell, then times ``enumerate_universe`` and
``verify_universal_cycle`` and prints one JSON line with the phase times and
this process's peak RSS.
"""

import json
import sys
import time

from harness import peak_rss_mb, require_source

if __name__ == "__main__":
    require_source()
    from bwcycles.grandmama import generate_concat
    from bwcycles.oracle import enumerate_universe, verify_universal_cycle
    from bwcycles.words import ParamSet

    t, n, w = map(int, sys.argv[1:4])
    cycle = generate_concat(ParamSet(t, n, w))
    start = time.perf_counter()
    universe = enumerate_universe("bounded_words", t=t, n=n, w=w)
    mid = time.perf_counter()
    report = verify_universal_cycle(cycle, universe)
    end = time.perf_counter()
    print(json.dumps({"ok": report.ok, "windows": report.window_count,
                      "enumerate_s": mid - start, "verify_s": end - mid,
                      "peak_rss_mb": peak_rss_mb()}))
