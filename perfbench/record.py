"""Record the reference outputs that ``run.py`` checks against, into expected.json.

    python3 perfbench/record.py

Run it only at a commit whose outputs are known to be right: it stores the
SHA-256 of each whole-cycle workload's output, a 64-bit digest prefix for the
first query-mix jobs of seeds 0-19, and the exact probe counts.
"""

import json
import os
import sys

from harness import Tally, Tracer, require_source, run_job

SEEDS = range(20)
JOBS_PER_SEED = 45  # three query-mix rounds


def main() -> int:
    require_source()
    from bwcycles.cli import main as cli_main
    from layers import run_probes
    from run import EXPECTED
    from workloads import rounds

    off, tally = Tracer(False), Tally()
    streams = {}
    for name in ("concat-stream", "msr-stream", "verify-cycle"):
        job = next(rounds(name, 0, {}))[0]
        res = run_job(cli_main, job, off)
        tally.record(res.error, name)
        streams[" ".join(job.argv)] = {"sha256": res.digest}
    digests = {}
    for seed in SEEDS:
        seq = []
        for jobs in rounds("query-mix", seed, {}):
            for job in jobs:
                res = run_job(cli_main, job, off)
                tally.record(res.error, " ".join(job.argv))
                seq.append(res.digest[:16])
            if len(seq) >= JOBS_PER_SEED:
                break
        digests[str(seed)] = seq[:JOBS_PER_SEED]
    _, counts = run_probes(off, 0, 1, {}, tally)
    if tally.failed:
        print("\n".join(tally.errors), file=sys.stderr)
        return 1
    with open(EXPECTED, "w") as fh:
        json.dump({"streams": streams, "query_mix": digests, "counts": counts}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {EXPECTED}: {tally.attempted} checked outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
