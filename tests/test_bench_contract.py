"""The library names the benchmark's traced runs patch must keep existing.

``bench/spans.py`` swaps the attributes in its ``PATCH_POINTS`` for
wrappers that open a span; renaming one of them would break only the
traced benchmark run, so this test checks them without running it.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_patch_point_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCH_POINTS
    for owner, attr, name in spans.PATCH_POINTS:
        assert callable(getattr(owner, attr, None)), f"{name}: {attr} is gone"
