"""Self-tests of the benchmark's generators and trace arithmetic.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import itertools
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import pytest  # noqa: E402

import cspsampling as cs  # noqa: E402
from cspsampling import io  # noqa: E402

import instances  # noqa: E402
from spans import self_time_by_layer  # noqa: E402

ROBOT = io.parse_theory_spec(
    (ROOT / "theories" / "robot_scheduling.theory").read_text()
).family()
SIG = ROBOT.signature
ALT = cs.alternating_cycles_sampling()


def level(inst: cs.Instance) -> int:
    return len(cs.contract_equalities(inst)[0].variables)


def test_generators_are_deterministic_for_a_seed():
    def draw(seed):
        rng = random.Random(seed)
        out = instances.criterion9_stream(SIG, rng, 9, 10)
        out += [instances.robot_case(SIG, rng, 6, kind, eq_neq)
                for kind in instances.ROBOT_KINDS for eq_neq in (False, True)]
        out += [instances.alt_cycles_case(ALT.signature, rng, 6, ALT.decider)
                for _ in range(10)]
        return out

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
    assert instances.shape_complete_case(SIG, 11) == instances.shape_complete_case(SIG, 11)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 11, 14, 16])
def test_robot_instances_sit_at_exactly_level_n(n):
    rng = random.Random(n)
    cases = [instances.robot_case(SIG, rng, n, kind, eq_neq)
             for kind in instances.ROBOT_KINDS for eq_neq in (False, True)
             for _ in range(20)]
    cases += instances.criterion9_stream(SIG, rng, n, 20)
    cases.append(instances.shape_complete_case(SIG, n))
    assert {level(c.instance) for c in cases} == {n}
    assert any(isinstance(a, cs.Eq) for c in cases for a in c.instance.atoms)


def test_every_deep_unsat_instance_holds_its_contradiction():
    rng = random.Random(3)
    for n in (5, 6, 7):
        for eq_neq in (False, True):
            case = instances.robot_case(SIG, rng, n, "deep_unsat", eq_neq)
            lo, lt = case.contradiction
            w, x, y = lo.args
            assert lo.symbol == "min3" and lt == cs.Rel("lt", (x, w))
            assert len({w, x, y}) == 3
            assert {lo, lt} <= set(case.instance.atoms)
            assert case.expected is False


def test_contradictions_hold_under_no_plan():
    for r in itertools.product(range(3), repeat=3):
        rank = dict(zip("wxy", r))
        robot = dict.fromkeys("wxy", 0)
        deep = [cs.Rel("min3", ("w", "x", "y")), cs.Rel("lt", ("x", "w"))]
        assert not all(instances.atom_holds(a, rank, robot) for a in deep)
    for robot_of_v in (0, 1):
        both = [cs.Rel("p0", ("v",)), cs.Rel("p1", ("v",))]
        assert not all(instances.atom_holds(a, {"v": 1}, {"v": robot_of_v}) for a in both)


def test_plan_evaluation_rejects_false_atoms():
    rank, robot = {"a": 1, "b": 2}, {"a": 0, "b": 1}
    assert instances.atom_holds(cs.Rel("lt", ("a", "b")), rank, robot)
    assert not instances.atom_holds(cs.Rel("lt", ("b", "a")), rank, robot)
    assert not instances.atom_holds(cs.Rel("min3", ("b", "a", "b")), rank, robot)
    assert not instances.atom_holds(cs.Rel("p0", ("b",)), rank, robot)
    assert not instances.atom_holds(cs.Eq("a", "b"), rank, robot)


def test_instance_text_round_trips_through_the_parser():
    rng = random.Random(5)
    for eq_neq in (False, True):
        inst = instances.robot_case(SIG, rng, 6, "planted_sat", eq_neq).instance
        again = io.parse_instance(instances.instance_text(inst), SIG)
        assert set(again.atoms) == set(inst.atoms)
        assert set(again.variables) == set(inst.variables)


def test_self_time_subtracts_children():
    spans = [
        ["solvers.solve", 0.0, 10.0, -1, 1],
        ["solvers.hom_search", 1.0, 7.0, 0, 1],
        ["model.shaped_masks", 2.0, 5.0, 1, 1],
        ["formulas.validate", 8.0, 9.0, 0, 1],
    ]
    assert self_time_by_layer(spans) == {"solvers": 6.0, "model": 3.0, "formulas": 1.0}
    assert self_time_by_layer(spans, since=1) == {"solvers": 3.0, "model": 3.0, "formulas": 1.0}
    assert self_time_by_layer(spans, since=1, until=3) == {"solvers": 3.0, "model": 3.0}
