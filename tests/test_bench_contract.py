"""The library names the benchmark's traced runs patch must keep existing.

``bench/spans.py`` swaps the attributes in its ``PATCH_POINTS`` for
wrappers that open a span; renaming one of them, or calling around the
attribute, would break only the traced benchmark run, so these tests check
the names and the calls through them without running it.
"""

import importlib.util
from pathlib import Path

import cspsampling as cs
from cspsampling.formulas import Eq, Instance, Rel
from cspsampling.model import Signature, Structure

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_patch_point_exists_and_is_callable():
    spans = _spans()
    assert spans.PATCH_POINTS
    for owner, attr, name in spans.PATCH_POINTS:
        assert callable(getattr(owner, attr, None)), f"{name}: {attr} is gone"


def test_pipelines_prepare_once_and_call_deciders_through_traced_names():
    """A traced run counts one validation and one contraction per request,
    and one decider span per sample the pipeline tries."""
    sig = Signature([("E", 2)])
    samples = [
        Structure(sig, 1, {}),
        Structure(sig, 2, {"E": {(0, 1)}}),
        Structure(sig, 2, {"E": {(0, 1), (1, 0)}}),
    ]
    family = cs.explicit_sampling(sig, samples, equality_matching=True)
    path = [Rel("E", ("x", "y")), Rel("E", ("y", "z")), Eq("x", "w")]
    triangle = path + [Rel("E", ("z", "x"))]
    pipelines = (
        (cs.solve_via_sampling, "solvers.hom_search"),
        (cs.solve_ac_over_sampling, "solvers.arc_consistency"),
        (cs.solve_nu_over_sampling, "solvers.establish_23_consistency"),
    )
    tracer = _spans().Tracer()
    for atoms in (path, triangle):
        inst = Instance.of(sig, atoms)
        for solve, decider in pipelines:
            tracer.spans.clear()
            tracer.install()
            try:
                result = solve(family, inst)
            finally:
                tracer.uninstall()
            tried = result.sample_index + 1 if result.satisfiable else len(samples)
            names = [span[0] for span in tracer.spans]
            assert names.count("formulas.validate") == 1, solve.__name__
            assert names.count("formulas.contract_equalities") == 1, solve.__name__
            assert names.count(decider) == tried, solve.__name__
