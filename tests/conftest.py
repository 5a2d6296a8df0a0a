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
from cspsampling.model import mask_bits

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


def image_structure(mapping, source: cs.Structure, target: cs.Structure) -> cs.Structure:
    """Substructure of ``target`` induced on the image of ``mapping``, which
    must be a homomorphism from ``source`` to ``target``."""
    if not cs.is_homomorphism(mapping, source, target):
        raise ValueError("map is not a homomorphism")
    image = sorted({mapping[e] for e in range(source.domain_size)})
    renumber = {old: new for new, old in enumerate(image)}
    relations = {
        name: {tuple(map(renumber.get, t)) for t in tuples if all(e in renumber for e in t)}
        for name, tuples in target.relations.items()
    }
    labels = None if target.labels is None else [target.labels[old] for old in image]
    return cs.Structure(target.signature, len(image), relations, labels)


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


def scan_support_masks(tuples, args, masks):
    """``support_masks`` by its definition, over listed tuples: the values
    each variable takes in the tuples that give it one value within its
    mask (a variable without a mask is unrestricted)."""
    found = dict.fromkeys(args, 0)
    for t in tuples:
        values: dict = {}
        if all(
            values.setdefault(x, e) == e and (x not in masks or masks[x] >> e & 1)
            for x, e in zip(args, t)
        ):
            for x, e in values.items():
                found[x] |= 1 << e
    return found


# --- the per-value references of the whole-mask solver steps ------------------
#
# The solvers revise a wide atom (three or more distinct variables) with one
# ``support_masks`` query and close (2,3)-consistency a row at a time. The
# functions below keep the per-value forms they replaced: a value survives
# while some listed tuple through it supports the atom, and a value pair
# while ``supported`` finds it a partner on every third variable. Both
# fixpoints are unique, so the two forms must agree exactly.


class _Buckets:
    """The listed tuples of a structure's relations by the value at one
    position, built once per reference run."""

    def __init__(self, target):
        self.target = target
        self.cache: dict = {}

    def supporting(self, name, args, position, value, masks):
        """The variable maps of the tuples with ``value`` at ``position``
        that give each variable one value within its mask."""
        key = (name, position)
        if key not in self.cache:
            grouped: dict = {}
            for t in self.target.relations[name]:
                grouped.setdefault(t[position], []).append(t)
            self.cache[key] = grouped
        for t in self.cache[key].get(value, ()):
            values: dict = {}
            if all(
                values.setdefault(x, e) == e and (x not in masks or masks[x] >> e & 1)
                for x, e in zip(args, t)
            ):
                yield values


def reference_gac_fixpoint(target, variables, atoms):
    """``solvers._gac_fixpoint`` with the per-value wide sweep: each value
    of each variable of a wide atom is dropped when no listed tuple through
    it supports the atom."""
    from collections import deque

    from cspsampling import solvers

    buckets = _Buckets(target)
    cand, arcs, arcs_watching, atoms_of = solvers._compile(target, variables, atoms)
    if not all(cand.values()):
        return None
    wide = dict.fromkeys(a for listed in atoms_of.values() for a, _ in listed)
    queue = deque(range(len(arcs)))
    while all(cand.values()) and solvers._run_arcs(
        arcs, arcs_watching, cand, queue, set(queue), [], True
    ):
        narrowed: dict = {}
        for atom in wide:
            for u in dict.fromkeys(atom.args):
                position = atom.args.index(u)
                for value in mask_bits(cand[u]):
                    supports = buckets.supporting(atom.symbol, atom.args, position, value, cand)
                    if next(supports, None) is None:
                        cand[u] ^= 1 << value
                        narrowed[u] = None
        if not narrowed:
            return cand, arcs, arcs_watching, atoms_of
        queue = deque(dict.fromkeys(i for u in narrowed for i in arcs_watching[u]))
    return None


def reference_support_masks(target, name, args, masks):
    """``support_masks`` through ``supporting`` at the first variable with a
    singleton mask, the forward check's per-value form; every listed tuple
    when no mask is a singleton."""
    found = dict.fromkeys(args, 0)
    anchor = next((x for x in args if x in masks and masks[x].bit_count() == 1), None)
    if anchor is None:
        return scan_support_masks(target.relations[name], args, masks)
    position, value = args.index(anchor), masks[anchor].bit_length() - 1
    for values in _Buckets(target).supporting(name, args, position, value, masks):
        for x, e in values.items():
            found[x] |= 1 << e
    return found


def reference_23_consistency(inst, target):
    """``establish_23_consistency`` checking one value pair at a time: a
    pair goes when a third variable leaves it no common partner (one that
    also satisfies the triple atoms on the three), or when a wider atom on
    either side has no supporting tuple extending it."""
    from collections import deque

    atoms = [a for a in inst.atoms if isinstance(a, cs.Rel)]
    if inst.has_bot():
        return False
    variables = inst.variables
    fixpoint = reference_gac_fixpoint(target, variables, atoms)
    if fixpoint is None:
        return False
    cand, arcs, _, atoms_of = fixpoint
    buckets = _Buckets(target)
    rel = {
        (u, w): dict.fromkeys(mask_bits(cand[u]), cand[w])
        for u in variables
        for w in variables
        if u != w
    }
    for affected, watched, arc in arcs:
        rows = rel[(watched, affected)]
        for a in rows:
            rows[a] &= arc.partners(a)
    if not all(any(rows.values()) for rows in rel.values()):
        return False
    triples: dict = {}
    for atom in atoms:
        if len(set(atom.args)) == 3:
            triples.setdefault(frozenset(atom.args), []).append(atom)
    wide_of = {v: [a for a, _ in atoms_of[v] if len(set(a.args)) > 3] for v in variables}

    def holds(extra, values):
        return all(tuple(values[v] for v in a.args) in target.relations[a.symbol] for a in extra)

    def supported(x, a, y, b):
        masks = {x: 1 << a, y: 1 << b}
        for z in variables:
            if z == x or z == y:
                continue
            masks[z] = both = rel[(x, z)][a] & rel[(y, z)][b]
            extra = triples.get(frozenset((x, y, z)))
            if extra and not any(holds(extra, {x: a, y: b, z: w}) for w in mask_bits(both)):
                return False
            if not both:
                return False
        for u, value in ((x, a), (y, b)):
            for atom in wide_of[u]:
                supports = buckets.supporting(
                    atom.symbol, atom.args, atom.args.index(u), value, masks
                )
                if next(supports, None) is None:
                    return False
        return True

    pair_keys = list(itertools.combinations(variables, 2))
    queue = deque(pair_keys)
    queued = set(queue)
    while queue:
        key = queue.popleft()
        queued.discard(key)
        x, y = key
        rows, cols = rel[key], rel[(y, x)]
        changed = False
        for a, row in rows.items():
            for b in mask_bits(row):
                if not supported(x, a, y, b):
                    rows[a] ^= 1 << b
                    cols[b] ^= 1 << a
                    changed = True
        if changed:
            if not any(rows.values()):
                return False
            for other in pair_keys:
                if other != key and (x in other or y in other) and other not in queued:
                    queue.append(other)
                    queued.add(other)
    return True


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


def random_qf_definition(rng: random.Random, k: int, symbols, depth: int = 3) -> str:
    """A random quantifier-free definition in x1..xk, as parser text.

    Atoms are equalities, ``xI < xJ`` when ``"<"`` is in ``symbols`` and
    ``part(j)(xI)`` for each ``"Pj"`` in ``symbols``.
    """
    parts = sorted(int(s[1:]) for s in symbols if s.startswith("P"))

    def var() -> str:
        return f"x{rng.randint(1, k)}"

    def atom() -> str:
        kinds = ["="] + (["<"] if "<" in symbols else []) + (["part"] if parts else [])
        kind = rng.choice(kinds)
        if kind == "part":
            return f"part({rng.choice(parts)})({var()})"
        return f"{var()} {kind} {var()}"

    def formula(d: int) -> str:
        r = rng.random()
        if d == 0 or r < 0.3:
            return atom()
        if r < 0.45:
            return f"!({formula(d - 1)})"
        op = " & " if r < 0.75 else " | "
        return f"({formula(d - 1)}{op}{formula(d - 1)})"

    return formula(depth)
