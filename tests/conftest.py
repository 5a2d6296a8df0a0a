"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's solving code paths:
satisfiability is decided by brute-force assignment enumeration, and the
scheduling theory is evaluated semantically over (time rank, robot color)
pairs. Tests freeze expected values computed by these oracles.
"""

from __future__ import annotations

import itertools
import random

import pytest

import cspsampling as cs

MIN3_DEF = "(x1 = x2 & !(x3 < x2)) | (x1 = x3 & !(x2 < x3))"


def order_family():
    return cs.dense_order_sampling([("lt", 2, "x1 < x2"), ("min3", 3, MIN3_DEF)])


def colors_family():
    return cs.colored_partition_sampling(
        2, [("p0", 1, "part(1)(x1)"), ("p1", 1, "part(2)(x1)")]
    )


@pytest.fixture(scope="session")
def robot_theory():
    """The two-robot scheduling theory: order-with-min joined with 2 colors."""
    return cs.product_sampling(order_family(), colors_family())


def brute_force_hom(inst: cs.Instance, target: cs.Structure):
    """Assignment enumeration; the independent oracle for hom_search."""
    variables = inst.variables
    for combo in itertools.product(range(target.domain_size), repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if cs.check_witness(inst, target, assignment):
            return assignment
    return None


def brute_force_gac(inst: cs.Instance, target: cs.Structure):
    """Generalized arc consistency by its definition; the oracle for
    arc_consistency.

    A tuple supports a relation atom when it gives every argument variable
    one value, taken from that variable's current set; values that no
    tuple of some atom supports are dropped until nothing changes. Returns
    the sets, or None when one empties.
    """
    domains = {v: set(range(target.domain_size)) for v in inst.variables}
    atoms = [a for a in inst.atoms if isinstance(a, cs.Rel)]
    changed = True
    while changed:
        changed = False
        for atom in atoms:
            kept: dict[str, set[int]] = {v: set() for v in atom.args}
            for t in target.relations[atom.symbol]:
                values: dict[str, int] = {}
                for v, e in zip(atom.args, t):
                    if values.setdefault(v, e) != e or e not in domains[v]:
                        break
                else:
                    for v, e in values.items():
                        kept[v].add(e)
            for v, support in kept.items():
                if not domains[v] <= support:
                    domains[v] &= support
                    changed = True
    if any(not d for d in domains.values()):
        return None
    return {v: frozenset(d) for v, d in domains.items()}


def rank_color_oracle(inst: cs.Instance) -> bool:
    """Satisfiability of a scheduling instance, decided semantically.

    Variables range over (time rank, robot color) with ranks in 1..k for k
    variables; equal ranks denote the same mounting time and hence the
    same part, so they must carry the same color. Backtracking with early
    atom checks keeps this fast enough for a few thousand calls.
    """
    variables = inst.variables
    k = len(variables)
    if any(isinstance(a, cs.Bot) for a in inst.atoms):
        return False
    if k == 0:
        return True
    index = {v: i for i, v in enumerate(variables)}
    atoms_ready = [[] for _ in range(k)]
    for atom in inst.atoms:
        vs = [index[v] for v in (
            atom.args if isinstance(atom, cs.Rel) else (atom.left, atom.right)
        )]
        atoms_ready[max(vs)].append(atom)

    values = [(r, c) for r in range(1, k + 1) for c in (1, 2)]
    chosen: list[tuple[int, int]] = []

    def atom_holds(atom) -> bool:
        if isinstance(atom, cs.Rel):
            args = [chosen[index[v]] for v in atom.args]
            if atom.symbol == "lt":
                return args[0][0] < args[1][0]
            if atom.symbol == "min3":
                return args[0][0] == min(args[1][0], args[2][0])
            if atom.symbol == "p0":
                return args[0][1] == 1
            if atom.symbol == "p1":
                return args[0][1] == 2
            raise AssertionError(atom.symbol)
        if isinstance(atom, cs.Eq):
            return chosen[index[atom.left]] == chosen[index[atom.right]]
        return chosen[index[atom.left]] != chosen[index[atom.right]]

    def extend(i: int) -> bool:
        if i == k:
            return True
        for value in values:
            ok = True
            for r, c in chosen:
                if r == value[0] and c != value[1]:
                    ok = False  # one mounting time, one robot
                    break
            if not ok:
                continue
            chosen.append(value)
            if all(atom_holds(a) for a in atoms_ready[i]) and extend(i + 1):
                return True
            chosen.pop()
        return False

    return extend(0)


def materialized_product(b1: cs.Structure, b2: cs.Structure) -> cs.Structure:
    """The product sample of two factor structures as a plain Structure.

    The reference for the implicit product: every factor tuple is paired
    with every other-factor tuple of the same equality pattern (injective on
    its distinct positions), and the tuples are listed. Relations of the
    first signature are owned by ``b1``, the rest by ``b2``.
    """
    size2 = b2.domain_size
    signature = b1.signature.union(b2.signature)
    labels = None
    if b1.labels is not None or b2.labels is not None:
        labels = [
            f"({b1.label(a)},{b2.label(b)})"
            for a in range(b1.domain_size)
            for b in range(size2)
        ]
    relations = {}
    for name, arity in signature:
        own_first = name in b1.signature
        outer, inner = (b1, b2) if own_first else (b2, b1)
        rel = set()
        for t in outer.relations[name]:
            block_of: dict[int, int] = {}
            for a in t:
                block_of.setdefault(a, len(block_of))
            pattern = [block_of[a] for a in t]
            for assign in itertools.permutations(range(inner.domain_size), len(block_of)):
                if own_first:
                    rel.add(tuple(a * size2 + assign[p] for a, p in zip(t, pattern)))
                else:
                    rel.add(tuple(assign[p] * size2 + b for b, p in zip(t, pattern)))
        relations[name] = rel
    return cs.Structure(signature, b1.domain_size * size2, relations, labels)


def enumerate_instances(signature, pool, max_atoms, with_equalities=True):
    """All instances over the variable pool with at most max_atoms atoms."""
    universe: list = [
        cs.Rel(sym, args)
        for sym, arity in signature
        for args in itertools.product(pool, repeat=arity)
    ]
    if with_equalities:
        for a, b in itertools.combinations(pool, 2):
            universe.append(cs.Eq(a, b))
            universe.append(cs.Neq(a, b))
    for r in range(max_atoms + 1):
        for combo in itertools.combinations(universe, r):
            yield cs.Instance.of(signature, combo, declared=pool)


def random_instance(signature, rng: random.Random, max_vars=6, max_atoms=8,
                    neq_ok=True):
    """A random instance: uniform relation atoms plus occasional (dis)equalities."""
    k = rng.randint(1, max_vars)
    pool = [f"x{i}" for i in range(1, k + 1)]
    atoms = []
    symbols = list(signature)
    for _ in range(rng.randint(1, max_atoms)):
        roll = rng.random()
        if roll < 0.08:
            atoms.append(cs.Eq(rng.choice(pool), rng.choice(pool)))
        elif roll < 0.16 and neq_ok:
            atoms.append(cs.Neq(rng.choice(pool), rng.choice(pool)))
        else:
            sym, arity = rng.choice(symbols)
            atoms.append(cs.Rel(sym, tuple(rng.choice(pool) for _ in range(arity))))
    return cs.Instance.of(signature, atoms, declared=pool)
