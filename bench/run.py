"""Benchmark of the cspsampling pipeline: one command, every metric.

    python3 bench/run.py --workload robot-cold --seed 1 --seconds 25 --trace 0

Each run starts three fresh worker processes one after another
(never two at once); each sets its workload up, then runs its share of
``--seconds`` as a closed loop with one client. ``--trace 0`` prints the
end-to-end metrics, measured with tracing off; ``--trace 1`` prints the
per-layer metrics of a traced run. Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
result, with nproc, the Python version, the seed, the ladder and the
deadline, is written to ``.bench_out/BENCH_<workload>.json``.

Workloads, and why each is here:
  robot-cold    every level of a ladder of the robot-scheduling product is
                built cold (factor generate, product generate, first solve),
                plus one CLI solve: materialization and index building do
                the work, search almost none.
  robot-warm    one level, built and fully indexed in set-up; the loop
                replays a criterion-9 stream: search does the work.
  refute-small  small levels; planted, deep-unsat and alternating-cycles
                instances through all three propagation engines, each solve
                under a per-solve deadline: refutation needs propagation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THEORY = "theories/robot_scheduling.theory"
OUT_DIR = ".bench_out"
RUN_LIMIT_S = 170  # a run ends within 180 s; its workers share this
WORKERS = 3  # fresh processes per run, so set-up is measured three times

WORKLOADS = {
    "robot-cold": {"ladder": [8, 11, 14], "cli_level": 11, "cli_repeats": 2,
                   "stream": 800, "distinct_rounds": 2, "deadline_ms": 0},
    "robot-warm": {"level": 16, "stream": 1000, "cli_level": 8, "cli_repeats": 3,
                   "deadline_ms": 0},
    "refute-small": {"levels": [5, 6, 7], "groups": 600, "side_every_s": 1.5,
                     "cli_level": 6, "cli_repeats": 1, "deadline_ms": 100},
}


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def tail_percentile(n: int) -> float:
    """p99 when at least ten samples lie beyond it, else the highest
    percentile that keeps ten beyond (the median below 11 samples)."""
    return min(99.0, 100.0 * (1 - 10 / n)) if n > 10 else 50.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def run_worker(params: dict, limit_s: float) -> tuple[float, dict]:
    """One fresh worker process; returns its set-up time and its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(params)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(
            f"worker {params['worker']} of {params['workload']} failed "
            f"(exit {proc.returncode})"
        )
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def aggregate(setups: list[float], results: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of a run, and the latency sample count behind them."""
    lat = [x for r in results for x in r["latencies_ms"]]
    tail = tail_percentile(len(lat))
    return {
        "setup_s": statistics.median(setups),
        "cold_solve_s": statistics.median(x for r in results for x in r["cold_solve_s"]),
        "cli_solve_s": statistics.median(x for r in results for x in r["cli_solve_s"]),
        "solve_p50_ms": statistics.median(lat),
        "solve_p99_ms": percentile(lat, tail),
        "solves_per_s": sum(r["verdicts"] for r in results) / sum(r["loop_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }, {"latency_samples": len(lat), "tail_percentile": tail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="loop time of the run, shared by its workers")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/cspsampling/__init__.py", THEORY) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a cspsampling checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    config = WORKLOADS[args.workload]
    (ROOT / OUT_DIR).mkdir(exist_ok=True)

    setups, results = [], []
    for worker in range(WORKERS):
        params = {**config, "workload": args.workload, "seed": args.seed,
                  "worker": worker, "budget_s": args.seconds / WORKERS,
                  "trace": args.trace, "theory": THEORY, "out_dir": OUT_DIR}
        setup_s, result = run_worker(params, RUN_LIMIT_S / WORKERS)
        setups.append(setup_s)
        results.append(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    wrong = sum(r["wrong"] for r in results)
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workers": WORKERS,
        **config,
    }
    e2e, detail = aggregate(setups, results)
    print(f"# {args.workload}: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    misses = {m: sum(r["misses"].get(m, 0) for r in results) for m in ("hom", "ac", "nu")}
    solves = {m: sum(r["solves"].get(m, 0) for r in results) for m in ("hom", "ac", "nu")}
    print(f"# failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted}; "
          f"wrong answers {wrong})")
    print("# deadline misses (untraced loop, no verdict, not failures): "
          + ", ".join(f"{m} {misses[m]} of {solves[m]}" for m in misses))
    for why in sorted({f for r in results for f in r["failures"]}):
        print(f"#   failure: {why}")
    print(f"# latency samples {detail['latency_samples']}, "
          f"solve_p99_ms taken at p{detail['tail_percentile']:g}")
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in results),
                   "unit": unit}
            for name, unit in metric_units("per_layer").items()
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    record = {"env": env, "failed_frac": failed / attempted, "attempted": attempted,
              "failed": failed, "wrong": wrong, "deadline_misses": misses,
              "solves": solves, "metrics": metrics,
              "setup_samples_s": setups, **detail}
    (ROOT / OUT_DIR / f"BENCH_{args.workload}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
