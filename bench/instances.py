"""Seeded instance generators whose verdicts are known by construction.

Nothing here calls a solver. A planted robot instance is drawn true under
a hidden assembly plan (a mounting rank and a robot per variable), and
every atom is re-evaluated under that plan before the instance is handed
out. The unsatisfiable classes add a contradiction to a planted instance:
``both_robots`` puts one part on both robots (the two parts are disjoint),
``deep_unsat`` adds ``min3(w,x,y) & lt(x,w)`` (min(x,y) <= x < w). Random
alternating-cycles instances carry no verdict; the caller asks the
family's reference decider once, outside any timed region.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import cspsampling as cs

ROBOT_KINDS = ("planted_sat", "both_robots", "deep_unsat")
ALT_NOISE = 0.15


@dataclass(frozen=True)
class Case:
    """One instance, its class, its expected verdict and its contradiction."""

    kind: str
    instance: cs.Instance
    expected: bool
    contradiction: tuple = ()


class PlanViolation(AssertionError):
    """A generated atom is false under the plan it was drawn from."""


def atom_holds(atom, rank: dict[str, int], robot: dict[str, int]) -> bool:
    """Truth of one scheduling atom under a plan; equal ranks share a robot."""
    if isinstance(atom, cs.Rel):
        r = [rank[v] for v in atom.args]
        if atom.symbol == "lt":
            return r[0] < r[1]
        if atom.symbol == "min3":
            return r[0] == min(r[1], r[2])
        if atom.symbol == "p0":
            return robot[atom.args[0]] == 0
        if atom.symbol == "p1":
            return robot[atom.args[0]] == 1
        raise ValueError(f"not a scheduling symbol: {atom.symbol}")
    if isinstance(atom, cs.Eq):
        return rank[atom.left] == rank[atom.right]
    if isinstance(atom, cs.Neq):
        return rank[atom.left] != rank[atom.right]
    return False


def core_variables(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def _plan(rng: random.Random, vs: list[str]):
    n = len(vs)
    rank = {v: rng.randint(1, n) for v in vs}
    robot_of_rank: dict[int, int] = {}
    robot = {v: robot_of_rank.setdefault(rank[v], rng.randrange(2)) for v in vs}
    return rank, robot


def planted_atoms(
    rng: random.Random, n: int, eq_neq: bool = False
) -> tuple[list, dict[str, int], dict[str, int]]:
    """n atoms true under a fresh random plan over v0..v(n-1).

    With ``eq_neq``, adds disequalities between parts at different times
    and equalities that alias a core variable under a new name, so the
    contracted instance still has exactly n variables.
    """
    vs = core_variables(n)
    rank, robot = _plan(rng, vs)
    atoms: list = []
    for _ in range(n):
        roll = rng.random()
        a, b, c = rng.choice(vs), rng.choice(vs), rng.choice(vs)
        if roll < 0.35 and rank[a] != rank[b]:
            lo, hi = (a, b) if rank[a] < rank[b] else (b, a)
            atoms.append(cs.Rel("lt", (lo, hi)))
        elif roll < 0.60:
            lo = b if rank[b] <= rank[c] else c
            atoms.append(cs.Rel("min3", (lo, b, c)))
        else:
            atoms.append(cs.Rel("p0" if robot[a] == 0 else "p1", (a,)))
    if eq_neq:
        for j in range(rng.randint(1, 2)):
            a, b = rng.sample(vs, 2)
            if rank[a] != rank[b]:
                atoms.append(cs.Neq(a, b))
            alias, v = f"a{j}", rng.choice(vs)
            rank[alias], robot[alias] = rank[v], robot[v]
            atoms.append(cs.Eq(alias, v))
            atoms.append(cs.Rel("p0" if robot[v] == 0 else "p1", (alias,)))
    for atom in atoms:
        if not atom_holds(atom, rank, robot):
            raise PlanViolation(f"{atom} is false under its plan")
    return atoms, rank, robot


def robot_case(
    signature: cs.Signature, rng: random.Random, n: int, kind: str, eq_neq: bool = False
) -> Case:
    """A scheduling instance on exactly n core variables of one class."""
    atoms, _, _ = planted_atoms(rng, n, eq_neq)
    vs = core_variables(n)
    extra: tuple = ()
    if kind == "both_robots":
        v = rng.choice(vs)
        extra = (cs.Rel("p0", (v,)), cs.Rel("p1", (v,)))
    elif kind == "deep_unsat":
        w, x, y = rng.sample(vs, 3)
        extra = (cs.Rel("min3", (w, x, y)), cs.Rel("lt", (x, w)))
    elif kind != "planted_sat":
        raise ValueError(f"unknown robot instance class {kind!r}")
    inst = cs.Instance.of(signature, atoms + list(extra), declared=vs)
    return Case(kind, inst, not extra, extra)


def shape_complete_case(signature: cs.Signature, n: int) -> Case:
    """A planted instance on n >= 2 variables that depends on n alone.

    Besides n random planted atoms it holds an atom of every shape the
    solver indexes: ``lt``, ``min3`` with one, two (each pair of equal
    positions) and three distinct variables, and both robots. The plan is drawn
    until two variables share a time, which ``min3(a,b,b)`` and a
    three-variable ``min3`` need. The first solve of a cold level and the
    timed CLI solve use it, so their index-build work is the same for
    every seed.
    """
    for attempt in itertools.count():
        rng = random.Random(f"shapes/{n}/{attempt}")
        atoms, rank, robot = planted_atoms(rng, n)
        vs = sorted(core_variables(n), key=lambda v: (rank[v], v))
        triples = [(a, b, c) for a, b in zip(vs, vs[1:]) if rank[a] == rank[b]
                   for c in vs if c not in (a, b) and rank[c] >= rank[a]]
        if triples:
            break
    a, b, c = triples[0]
    lo, hi = vs[0], vs[-1]
    atoms += [
        cs.Rel("lt", (lo, hi)),
        cs.Rel("min3", (hi, hi, hi)),
        cs.Rel("min3", (lo, lo, hi)),
        cs.Rel("min3", (lo, hi, lo)),
        cs.Rel("min3", (a, b, b)),
        cs.Rel("min3", (a, b, c)),
        cs.Rel("p0" if robot[lo] == 0 else "p1", (lo,)),
        cs.Rel("p0" if robot[hi] == 0 else "p1", (hi,)),
    ]
    for atom in atoms:
        if not atom_holds(atom, rank, robot):
            raise PlanViolation(f"{atom} is false under its plan")
    inst = cs.Instance.of(signature, atoms, declared=core_variables(n))
    return Case("planted_sat", inst, True)


def criterion9_stream(
    signature: cs.Signature, rng: random.Random, n: int, count: int
) -> list[Case]:
    """The criterion-9 mix: 3 of 5 planted, 2 of 5 with a part on both robots."""
    return [
        robot_case(signature, rng, n, "both_robots" if i % 5 >= 3 else "planted_sat")
        for i in range(count)
    ]


def alt_cycles_case(
    signature: cs.Signature,
    rng: random.Random,
    n: int,
    decider: Callable[[cs.Instance], bool],
) -> Case:
    """n random E1/E2 atoms over n variables, no disequalities.

    Most atoms respect a hidden split of the variables into E1-sources and
    E1-targets, as edges of alternating paths do; a share ``ALT_NOISE`` of
    them is drawn uniformly instead, which can break the split. About half the
    instances are satisfiable. The verdict comes from the reference
    decider.
    """
    vs = [f"x{i}" for i in range(n)]
    sources = vs[: max(1, n // 2)]
    targets = vs[len(sources):]
    out: list = []
    for _ in range(n):
        roll = rng.random()
        if roll < ALT_NOISE:
            out.append(cs.Rel(rng.choice(("E1", "E2")), (rng.choice(vs), rng.choice(vs))))
        elif roll < 0.5 + ALT_NOISE / 2:
            out.append(cs.Rel("E1", (rng.choice(sources), rng.choice(targets))))
        else:
            out.append(cs.Rel("E2", (rng.choice(targets), rng.choice(sources))))
    rng.shuffle(vs)
    inst = cs.Instance.of(signature, out, declared=vs)
    return Case("alt_cycles", inst, decider(inst))


def instance_text(inst: cs.Instance) -> str:
    """The instance-file form read by ``cspsampling solve --instance``."""
    lines = []
    for atom in inst.atoms:
        if isinstance(atom, cs.Rel):
            lines.append(f"{atom.symbol}({','.join(atom.args)})")
        elif isinstance(atom, cs.Eq):
            lines.append(f"{atom.left} = {atom.right}")
        elif isinstance(atom, cs.Neq):
            lines.append(f"{atom.left} != {atom.right}")
        else:
            lines.append("false")
    lines.append("vars " + ", ".join(inst.variables))
    return "\n".join(lines) + "\n"
