"""Regenerate the ROADMAP Baseline table of the robot-scheduling product.

    python3 bench/baseline.py --ladder 8,16,24,32 --seed 20240817

Uses acceptance criterion 9's instances: one ``random.Random(seed)`` draws
20 instances for each of criterion 9's levels 4, 8, 16 and 32 in turn, in
the test's order of calls; a ladder level outside those draws its 20 after
them. The levels are built one after another on one family, as the test
does, with the worker's ``build_level`` (factor and product generate, then
the first solve, which builds the indexes). The 20 instances are then
solved warm twice; criterion 9 keeps the faster pass, and the table shows
both. Every verdict and witness
is checked by ``Workload.solve``. Prints one table row per level and the
rows as JSON on the last line. Not a gated workload: the top levels take
minutes and gigabytes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import sys

from worker import Job, Tally, Workload, cs
import instances
from spans import NullTracer

THEORY = "theories/robot_scheduling.theory"
CRITERION9_LEVELS = (4, 8, 16, 32)
STREAM = 20  # instances per level, as in acceptance criterion 9


def criterion9_streams(sig: cs.Signature, ladder: list[int], seed: int) -> dict:
    """Criterion 9's instances per level, drawn in the test's order."""
    rng = random.Random(seed)
    order = list(CRITERION9_LEVELS) + sorted(set(ladder) - set(CRITERION9_LEVELS))
    return {n: instances.criterion9_stream(sig, rng, n, STREAM) for n in order}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ladder", default="8,16,24,32")
    parser.add_argument("--seed", type=int, default=20240817)
    args = parser.parse_args(argv)
    ladder = [int(x) for x in args.ladder.split(",")]
    w = Workload({"workload": "baseline", "seed": args.seed, "worker": 0,
                  "theory": THEORY, "deadline_ms": 0}, NullTracer())
    spec = w.parse_spec()
    family = spec.family()
    streams = criterion9_streams(family.signature, ladder, args.seed)
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"seed={args.seed} ladder={args.ladder}")
    print("| n | |D| | tuples | product materialize | first solve (index build) "
          f"| {STREAM} warm solves, pass 1 | pass 2 | peak RSS |")
    print("|---|---|---|---|---|---|---|---|")
    rows = []
    for n in ladder:
        tally = Tally()
        w.build_level(spec, n, streams[n][0], tally)
        stage = w.stages[-1]
        warm = []
        for _ in range(2):
            done = len(tally.latencies_ms)
            for case in streams[n]:
                w.solve(Job(case, "hom", family, n), tally)
            warm.append(sum(tally.latencies_ms[done:]) / 1000)
        if tally.failed:
            raise SystemExit(f"n={n}: {tally.failures}")
        row = {
            "n": n,
            "domain": stage["family_size"],
            "tuples": stage["product_tuples"],
            "materialize_s": stage["factor_generate_s"] + stage["product_generate_s"],
            "first_solve_s": stage["first_solve_s"],
            "warm_passes_s": warm,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        rows.append(row)
        print(f"| {n} | {row['domain']} | {row['tuples']} | {row['materialize_s']:.2f} s "
              f"| {row['first_solve_s']:.2f} s | {warm[0]:.3f} s | {warm[1]:.3f} s "
              f"| {row['peak_rss_mb']:.0f} MB |", flush=True)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
