"""One benchmark worker: set a workload up, say "ready", run its loop.

run.py starts each worker as a fresh process and runs workers one after
another, never two at once. A worker is one closed-loop client: it sends
its next request only when the previous one has returned. It reads its
parameters as one JSON argument, prints ``ready`` when set-up is done and
one JSON result line at the end, and nothing else on standard output.

Every verdict is checked against a verdict known without the solver under
test: planted instances are satisfiable, the contradiction classes are
not, and alternating-cycles instances carry their reference decider's
verdict. Every satisfiable witness passes ``check_witness`` against the
sample it names.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cspsampling as cs  # noqa: E402
from cspsampling import io  # noqa: E402

import instances  # noqa: E402
from spans import NullTracer, Tracer, durations, self_time_by_layer  # noqa: E402

SOLVERS = {
    "hom": (cs.solve_via_sampling, "solvers.solve_via_sampling"),
    "ac": (cs.solve_ac_over_sampling, "solvers.solve_ac_over_sampling"),
    "nu": (cs.solve_nu_over_sampling, "solvers.solve_nu_over_sampling"),
}
LAYERS = ("io", "families", "qf", "sampling", "model", "formulas", "solvers", "cli")
CLI_TIMEOUT_S = 60


class DeadlineMiss(Exception):
    """A solve ran past its per-solve deadline and was interrupted."""


def _on_alarm(signum, frame):
    raise DeadlineMiss()


@dataclass(frozen=True)
class Job:
    """One request: a solve_* call on one instance over one family."""

    case: instances.Case
    method: str
    family: cs.SampleFamily
    level: int


@dataclass
class Tally:
    """Outcomes of the requests of one phase."""

    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    verdicts: int = 0
    wrong: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    misses: Counter = field(default_factory=Counter)
    solves: Counter = field(default_factory=Counter)
    loop_s: float = 0.0

    def fail(self, why: str, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.failures) < 10:
            self.failures.append(why)


def slope(points: dict[int, float]) -> float:
    """Least-squares slope of log(value) against log(n); 0 below two levels."""
    pts = [(math.log(n), math.log(v)) for n, v in sorted(points.items()) if v > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Workload:
    """Shared machinery: requests, checks, CLI calls, stage records."""

    def __init__(self, params: dict, tracer):
        self.params = params
        self.tracer = tracer
        self.rng = random.Random(
            f"{params['workload']}/{params['seed']}/{params['worker']}"
        )
        self.theory_path = ROOT / params["theory"]
        self.theory_text = self.theory_path.read_text(encoding="utf-8")
        self.deadline_s = params["deadline_ms"] / 1000 if params["deadline_ms"] else 0.0
        self.setup_tally = Tally()
        self.cold_solve_s: list[float] = []
        self.cli: list[dict] = []
        self.stages: list[dict] = []  # one record per level built
        self.request_class: dict[int, str] = {}

    # --- requests ----------------------------------------------------------

    def solve(self, job: Job, tally: Tally, sampled: bool = True,
              deadline: bool = True) -> None:
        """One checked, timed request; a deadline miss interrupts it.

        Only a solve that returned is a latency sample. A crash, a wrong
        verdict or a failed witness is a failure. A miss gives no verdict
        and no wrong answer: it counts in ``tally.misses``, not as a
        failure, and its time stays in the loop time, so it lowers
        ``solves_per_s``. With ``sampled`` false the latency stays out of
        the samples, and with ``deadline`` false the solve runs to its end,
        as for the first and repeat solves that build a level.
        """
        fn, span_name = SOLVERS[job.method]
        self.tracer.request += 1
        self.request_class[self.tracer.request] = job.case.kind
        tally.attempted += 1
        tally.solves[job.method] += 1
        result = failure = None
        limit_s = self.deadline_s if deadline else 0.0
        t0 = time.perf_counter()
        try:
            try:
                if limit_s:
                    signal.setitimer(signal.ITIMER_REAL, limit_s)
                with self.tracer.span(span_name):
                    result = fn(job.family, job.case.instance)
            finally:
                if limit_s:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineMiss:
            tally.misses[job.method] += 1
            return
        except Exception as exc:  # any crash of a solve is one failed request
            failure = f"{job.method} raised {exc!r} on {job.case.kind}"
        elapsed_ms = (time.perf_counter() - t0) * 1000
        if failure:
            tally.fail(failure, wrong=False)
            return
        if sampled:
            tally.latencies_ms.append(elapsed_ms)
        tally.verdicts += 1
        if result.satisfiable != job.case.expected:
            tally.fail(f"{job.method} said {result.verdict} on {job.case.kind}")
        elif result.assignment is not None:
            sample = job.family.generate(job.level)[result.sample_index]
            if not cs.check_witness(job.case.instance, sample, result.assignment):
                tally.fail(f"{job.method} witness fails on {job.case.kind}")

    def cli_solve(self, family: cs.SampleFamily, n: int, case: instances.Case,
                  tally: Tally) -> None:
        """``cspsampling solve --json`` in a fresh process, checked.

        Only satisfiable solves count in ``cli_solve_s``: an unsatisfiable
        one checks exit code 1 and is refuted before any index is built.
        """
        out_dir = ROOT / self.params["out_dir"]
        path = out_dir / f"cli-{self.params['workload']}-{self.params['worker']}.inst"
        path.write_text(instances.instance_text(case.instance), encoding="utf-8")
        cmd = [sys.executable, "-m", "cspsampling.cli", "solve",
               "--theory", str(self.theory_path), "--instance", str(path), "--json"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span("cli.solve"):
                proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                      cwd=ROOT, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tally.fail("cli solve timed out", wrong=False)
            return
        wall = time.perf_counter() - t0
        expected_code = 0 if case.expected else 1
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            report = None
        if case.expected:
            timings = report["timings"] if report else {}
            self.cli.append({
                "wall_s": wall,
                "reported_generate_s": timings.get("generate_s", 0.0),
                "reported_solve_s": timings.get("solve_s", 0.0),
            })
        if proc.returncode != expected_code or report is None:
            tally.fail(f"cli exit {proc.returncode}, expected {expected_code}")
            return
        tally.verdicts += 1
        if report["verdict"] != ("satisfiable" if case.expected else "unsatisfiable"):
            tally.fail(f"cli said {report['verdict']} on {case.kind}")
        elif case.expected:
            sample = family.generate(n)[report["sample_index"]]
            label_to_id = {sample.label(e): e for e in range(sample.domain_size)}
            assignment = {v: label_to_id[lab] for v, lab in report["witness"].items()}
            if not cs.check_witness(case.instance, sample, assignment):
                tally.fail("cli witness fails")

    def cli_checks(self, family: cs.SampleFamily, n: int, tally: Tally) -> None:
        """``cli_repeats`` timed satisfiable CLI solves at n, then one
        unsatisfiable one that checks exit code 1."""
        sig = family.signature
        for _ in range(self.params["cli_repeats"]):
            self.cli_solve(family, n, instances.shape_complete_case(sig, n), tally)
        self.cli_solve(family, n, instances.robot_case(sig, self.rng, n, "both_robots"), tally)

    # --- building a level cold ------------------------------------------------

    def parse_spec(self):
        with self.tracer.span("io.parse_theory_spec"):
            return io.parse_theory_spec(self.theory_text)

    def build_level(self, spec, n: int, first: instances.Case, tally: Tally,
                    cold: bool = False) -> cs.SampleFamily:
        """Factor generate, product generate, first and repeat solve at n.

        Nothing is cached at n for the families of a freshly parsed spec.
        With ``cold``, the time from here to the first verdict is one
        ``cold_solve_s`` sample.
        """
        family = spec.family()
        t0 = time.perf_counter()
        with self.tracer.span("families.factor_generate"):
            spec.theories["order"].generate(n)
            spec.theories["robots"].generate(n)
        t1 = time.perf_counter()
        with self.tracer.span("sampling.product_generate"):
            samples = family.generate(n)
        t2 = time.perf_counter()
        job = Job(first, "hom", family, n)
        self.solve(job, tally, sampled=False, deadline=False)
        t3 = time.perf_counter()
        self.solve(job, tally, sampled=False, deadline=False)
        t4 = time.perf_counter()
        if cold:
            self.cold_solve_s.append(t3 - t0)
        self.stages.append({
            "n": n,
            "factor_generate_s": t1 - t0,
            "product_generate_s": t2 - t1,
            "first_solve_s": t3 - t2,
            "repeat_solve_s": t4 - t3,
            "product_tuples": sum(len(r) for s in samples for r in s.relations.values()),
            "family_size": cs.family_size(family, n),
        })
        return family

    # --- phases --------------------------------------------------------------

    def setup(self) -> None:
        """Build ``self.family`` and the request list ``self.jobs``."""
        raise NotImplementedError

    side_every_s = math.inf  # solving time between two calls of side_work

    def side_work(self) -> None:
        """Work spread through the untraced loop, timed apart from it."""

    def loop(self, budget_s: float, tally: Tally, side: bool = False) -> None:
        """Closed loop over the jobs, from their start, until ``budget_s``
        of solving.

        With ``side``, ``side_work`` runs first and again after every
        ``side_every_s`` of solving. Its time stays out of the loop time,
        and its samples come from the whole run, not one short window.
        """
        start = time.perf_counter()
        side_s, next_side, i = 0.0, (0.0 if side else math.inf), 0
        while True:
            if time.perf_counter() - start - side_s >= next_side:
                t0 = time.perf_counter()
                self.side_work()
                side_s += time.perf_counter() - t0
                next_side += self.side_every_s
            self.solve(self.jobs[i % len(self.jobs)], tally)
            i += 1
            if time.perf_counter() - start - side_s >= budget_s:
                break
        tally.loop_s = time.perf_counter() - start - side_s

    def after_loop(self) -> None:
        self.cli_checks(self.family, self.params["cli_level"], self.setup_tally)


class RobotCold(Workload):
    """Each round builds every ladder level from a freshly parsed spec."""

    def setup(self) -> None:
        p = self.params
        sig = self.parse_spec().family().signature
        # a fresh top-level stream for each of the first few rounds, then reused
        self.streams = [
            instances.criterion9_stream(sig, self.rng, max(p["ladder"]), p["stream"])
            for _ in range(p["distinct_rounds"])
        ]
        self.rounds = 0
        self.firsts = {n: instances.shape_complete_case(sig, n) for n in p["ladder"]}

    def round(self, tally: Tally) -> None:
        p = self.params
        stream = self.streams[self.rounds % len(self.streams)]
        self.rounds += 1
        top = max(p["ladder"])
        for n in p["ladder"]:
            spec = self.parse_spec()
            family = self.build_level(spec, n, self.firsts[n], tally, cold=(n == top))
            if n == top:
                for case in stream:
                    self.solve(Job(case, "hom", family, n), tally)
            if n == p["cli_level"]:
                self.cli_checks(family, n, tally)
            del spec, family

    def loop(self, budget_s: float, tally: Tally, side: bool = False) -> None:
        """Whole rounds until the budget is spent; the last one finishes."""
        start = time.perf_counter()
        while time.perf_counter() - start < budget_s:
            self.round(tally)
        tally.loop_s = time.perf_counter() - start

    def after_loop(self) -> None:
        pass  # each round runs its own CLI solves


class RobotWarm(Workload):
    """One level, built and fully indexed in set-up; the loop replays."""

    def setup(self) -> None:
        p = self.params
        n = p["level"]
        spec = self.parse_spec()
        sig = spec.family().signature
        stream = instances.criterion9_stream(sig, self.rng, n, p["stream"])
        self.family = self.build_level(spec, n, instances.shape_complete_case(sig, n),
                                       self.setup_tally, cold=True)
        self.jobs = [Job(case, "hom", self.family, n) for case in stream]
        for job in self.jobs:  # every lazily built index shape is in place
            self.solve(job, self.setup_tally)


class RefuteSmall(Workload):
    """Small levels; planted, deep-unsat and alternating-cycles requests."""

    def setup(self) -> None:
        p = self.params
        levels = p["levels"]
        spec = self.parse_spec()
        sig = spec.family().signature
        self.side_every_s = p["side_every_s"]
        for n in sorted(levels):
            family = self.build_level(spec, n, instances.shape_complete_case(sig, n),
                                      self.setup_tally)
        self.family = family
        alt = cs.alternating_cycles_sampling()
        for n in range(1, max(levels) + 1):
            alt.generate(n)
        self.jobs: list[Job] = []
        for i in range(p["groups"]):
            n = levels[i % len(levels)]
            plain = instances.robot_case(sig, self.rng, n, "planted_sat")
            eq_neq = instances.robot_case(sig, self.rng, n, "planted_sat", eq_neq=True)
            deep = instances.robot_case(sig, self.rng, n, "deep_unsat")
            cyc = instances.alt_cycles_case(alt.signature, self.rng, n, alt.decider)
            cyc_level = len(cs.contract_equalities(cyc.instance)[0].variables)
            self.jobs += [
                Job(plain, "hom", family, n), Job(plain, "ac", family, n),
                Job(eq_neq, "hom", family, n),
                Job(deep, "hom", family, n), Job(deep, "ac", family, n),
                Job(cyc, "hom", alt, cyc_level), Job(cyc, "nu", alt, cyc_level),
            ]

    def side_work(self) -> None:
        """A cold build of the top level, then the CLI checks."""
        top = max(self.params["levels"])
        sig = self.family.signature
        self.build_level(self.parse_spec(), top, instances.shape_complete_case(sig, top),
                         self.setup_tally, cold=True)
        self.cli_checks(self.family, self.params["cli_level"], self.setup_tally)

    def after_loop(self) -> None:
        pass  # the untraced loop runs the CLI checks


WORKLOADS = {"robot-cold": RobotCold, "robot-warm": RobotWarm, "refute-small": RefuteSmall}


def layer_metrics(w: Workload, traced: Tally, untraced: Tally, loop_span: range) -> dict:
    """Per-layer figures of one worker's traced phases; 0 where unexercised.

    Loop figures come from the spans in ``loop_span``, those of the traced
    loop; the CLI checks after it stay out.
    """
    spans = w.tracer.spans
    loop = durations(spans, loop_span.start, loop_span.stop)
    every = durations(spans)
    out: dict[str, float] = {}

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    out["io.parse_theory_spec_s"] = statistics.median(d for d, _ in every["io.parse_theory_spec"])
    by_level: dict[int, list[dict]] = {}
    for rec in w.stages:
        by_level.setdefault(rec["n"], []).append(rec)
    per_level = {
        n: {k: statistics.median(r[k] for r in recs) for k in recs[0] if k != "n"}
        for n, recs in by_level.items()
    }
    for rec in per_level.values():
        rec["index_build_s"] = rec["first_solve_s"] - rec["repeat_solve_s"]
    top = per_level[max(per_level)]
    for key, name in (("factor_generate_s", "families.factor_generate"),
                      ("product_generate_s", "sampling.product_generate"),
                      ("product_tuples", "sampling.product_tuples"),
                      ("index_build_s", "model.index_build")):
        out[f"{name}_exp"] = slope({n: r[key] for n, r in per_level.items()})
        if key.endswith("_s"):
            out[f"{name}_s"] = top[key]
    out["sampling.product_tuples"] = top["product_tuples"]
    out["sampling.family_size"] = top["family_size"]
    out["solvers.first_solve_s"] = top["first_solve_s"]
    out["solvers.repeat_solve_s"] = top["repeat_solve_s"]

    out["cli.reported_generate_s"] = statistics.median(c["reported_generate_s"] for c in w.cli)
    out["cli.reported_solve_s"] = statistics.median(c["reported_solve_s"] for c in w.cli)

    requests = sum(traced.solves.values()) or 1
    contract = sum(d for name in ("formulas.validate", "formulas.contract_equalities")
                   for d, _ in loop.get(name, ()))
    out["formulas.contract_s"] = contract / requests
    hom = loop.get("solvers.hom_search", [])
    out["solvers.hom_search_s"] = mean(d for d, _ in hom)
    out["solvers.hom_search_calls"] = len(hom) / max(1, traced.solves["hom"])
    for kind in ("planted_sat", "deep_unsat", "alt_cycles"):
        out[f"solvers.hom_search_s.{kind}"] = mean(
            d for d, r in hom if w.request_class.get(r) == kind
        )
    out["solvers.arc_consistency_s"] = mean(d for d, _ in loop.get("solvers.arc_consistency", ()))
    out["solvers.establish_23_s"] = mean(
        d for d, _ in loop.get("solvers.establish_23_consistency", ())
    )
    for method in ("hom", "ac", "nu"):
        out[f"solvers.deadline_misses.{method}"] = (
            untraced.misses[method] / untraced.solves[method] if untraced.solves[method] else 0.0
        )
    own = self_time_by_layer(spans, loop_span.start, loop_span.stop)
    done = max(1, traced.verdicts)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = own.get(layer, 0.0) / done
    per_op_traced = traced.loop_s / max(1, traced.attempted)
    per_op_plain = untraced.loop_s / max(1, untraced.attempted)
    out["bench.trace_overhead_frac"] = per_op_traced / per_op_plain - 1
    return out


def main() -> int:
    params = json.loads(sys.argv[1])
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if params["trace"] else NullTracer()
    w = WORKLOADS[params["workload"]](params, tracer)
    tracer.install()
    w.setup()
    tracer.uninstall()
    print("ready", flush=True)

    untraced = Tally()
    w.loop(params["budget_s"], untraced, side=True)
    traced = None
    if params["trace"]:
        loop_mark = len(tracer.spans)
        traced = Tally()
        tracer.install()
        w.loop(params["budget_s"], traced)
        tracer.uninstall()
        loop_span = range(loop_mark, len(tracer.spans))
    tracer.install()
    w.after_loop()
    tracer.uninstall()

    tallies = [w.setup_tally, untraced] + ([traced] if traced else [])
    result = {
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "wrong": sum(t.wrong for t in tallies),
        "failures": [f for t in tallies for f in t.failures][:10],
        "latencies_ms": untraced.latencies_ms,
        "verdicts": untraced.verdicts,
        "loop_s": untraced.loop_s,
        "misses": dict(untraced.misses),
        "solves": dict(untraced.solves),
        "cold_solve_s": w.cold_solve_s,
        "cli_solve_s": [c["wall_s"] for c in w.cli],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced is not None:
        result["layers"] = layer_metrics(w, traced, untraced, loop_span)
        tracer.write(ROOT / params["out_dir"] / f"trace-{params['workload']}-{params['worker']}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
