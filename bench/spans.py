"""In-memory spans around calls into the library's layers.

Spans live in the benchmark, never in the library. The benchmark opens a
span around each call it makes into a layer, and ``Tracer.install`` swaps
the module attributes through which one layer calls another (for instance
``cspsampling.solvers.hom_search``, which ``solve_via_sampling`` looks up
at call time) for wrappers that open a span; ``uninstall`` restores them.
A span is (name, start, end, parent, request); the layer is the part of
the name before the first dot.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

from cspsampling import model, qf, solvers

# (module or class, attribute, span name): the calls between layers that a
# traced run wraps. Index builders are wrapped once per atom and solve;
# per-propagation bucket lookups are not, to keep tracing overhead small.
PATCH_POINTS = (
    (solvers, "hom_search", "solvers.hom_search"),
    (solvers, "arc_consistency", "solvers.arc_consistency"),
    (solvers, "establish_23_consistency", "solvers.establish_23_consistency"),
    (solvers, "validate", "formulas.validate"),
    (solvers, "contract_equalities", "formulas.contract_equalities"),
    (qf, "evaluate_definition", "qf.evaluate_definition"),
    (model.Structure, "shaped_masks", "model.shaped_masks"),
    (model.Structure, "projection_mask", "model.projection_mask"),
    (model.Structure, "diagonal_mask", "model.diagonal_mask"),
)


class NullTracer:
    """Tracing switched off: spans cost one attribute lookup and a call."""

    enabled = False
    request = 0

    def span(self, name: str):
        return contextlib.nullcontext()

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


class Tracer:
    """Records spans as [name, start, end, parent index, request id]."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        # a deadline alarm between begin and try can skip an inner end
        while self._open and self._open.pop() != index:
            pass

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def install(self) -> None:
        for owner, attr, name in PATCH_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def durations(
    spans: list[list], since: int = 0, until: int | None = None
) -> dict[str, list[tuple[float, int]]]:
    """Per span name, the (duration, request id) of each span in
    ``spans[since:until]``."""
    out: dict[str, list[tuple[float, int]]] = defaultdict(list)
    for name, start, end, _, request in spans[since:until]:
        if end is not None:
            out[name].append((end - start, request))
    return out


def self_time_by_layer(
    spans: list[list], since: int = 0, until: int | None = None
) -> dict[str, float]:
    """Seconds each layer spent in its own code in ``spans[since:until]``,
    children subtracted.

    Calls are synchronous and single-threaded, so a span's children never
    overlap and the part of its interval they cover is their summed length.
    """
    until = len(spans) if until is None else until
    covered = defaultdict(float)
    for name, start, end, parent, _ in spans[since:until]:
        if parent >= since and end is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index in range(since, until):
        name, start, end, _, _ = spans[index]
        if end is not None:
            out[name.split(".", 1)[0]] += (end - start) - covered[index]
    return dict(out)
