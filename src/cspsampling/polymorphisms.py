"""Polymorphism verification and small-scale search on finite structures.

An operation table is explicit: a total map from k-tuples of element ids to
element ids. The totally-symmetric search runs over support-set functions
rather than raw tables, which collapses the space enough to make desk-scale
verification feasible; a hard cap guards against larger inputs. No finite
check can certify "all arities", so callers get per-arity findings only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .formulas import Instance, Rel
from .model import Structure
from .solvers import hom_search


class SearchCapExceeded(ValueError):
    """The structure or arity is too large for exhaustive search."""


@dataclass(frozen=True)
class OperationTable:
    """An explicit k-ary operation on a domain of dense integer ids."""

    domain_size: int
    arity: int
    table: Mapping[tuple[int, ...], int]

    def __init__(self, domain_size: int, arity: int, table: Mapping[tuple[int, ...], int]):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        expected = domain_size**arity
        if len(table) != expected:
            raise ValueError(
                f"table has {len(table)} entries, needs {expected} to be total"
            )
        for t, out in table.items():
            if len(t) != arity or any(not (0 <= e < domain_size) for e in t):
                raise ValueError(f"bad argument tuple {t}")
            if not (0 <= out < domain_size):
                raise ValueError(f"output {out} out of range for arguments {t}")
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "table", dict(table))

    def apply(self, args: Sequence[int]) -> int:
        return self.table[tuple(args)]


def check_polymorphism(f: OperationTable, s: Structure) -> bool:
    """True iff every componentwise application of f stays inside each relation."""
    if f.domain_size != s.domain_size:
        raise ValueError("operation and structure have different domains")
    table = f.table
    k = f.arity
    for name, _arity in s.signature:
        tuples = s.sorted_tuples(name)
        rel = s.relations[name]
        arity = s.signature.arity(name)
        for combo in itertools.product(tuples, repeat=k):
            image = tuple(
                table[tuple(combo[i][j] for i in range(k))] for j in range(arity)
            )
            if image not in rel:
                return False
    return True


def is_totally_symmetric(f: OperationTable) -> bool:
    """True iff the value depends only on the set of arguments."""
    seen: dict[frozenset[int], int] = {}
    for args, out in f.table.items():
        support = frozenset(args)
        prev = seen.setdefault(support, out)
        if prev != out:
            return False
    return True


def is_near_unanimity(f: OperationTable) -> bool:
    """True iff f returns the repeated value whenever all but one argument agree."""
    if f.arity < 3:
        raise ValueError("near-unanimity operations have arity >= 3")
    table = f.table
    k = f.arity
    for b in range(f.domain_size):
        base = [b] * k
        for a in range(f.domain_size):
            for i in range(k):
                args = list(base)
                args[i] = a
                if table[tuple(args)] != b:
                    return False
    return True


def min_operation(
    domain_size: int, arity: int, order: Optional[Sequence[int]] = None
) -> OperationTable:
    """Pointwise minimum of any arity with respect to a total order.

    ``order`` lists the domain ids from least to greatest; the natural id
    order is the default. Arity 1 is the identity.
    """
    if order is None:
        rank = {e: e for e in range(domain_size)}
    else:
        if sorted(order) != list(range(domain_size)):
            raise ValueError("order must enumerate the whole domain")
        rank = {e: i for i, e in enumerate(order)}
    table = {
        args: min(args, key=rank.get)
        for args in itertools.product(range(domain_size), repeat=arity)
    }
    return OperationTable(domain_size, arity, table)


def majority_eq_operation(domain_size: int) -> OperationTable:
    """The ternary operation returning y if y = z and x otherwise.

    A near-unanimity operation on every domain.
    """
    table = {
        (x, y, z): (y if y == z else x)
        for x, y, z in itertools.product(range(domain_size), repeat=3)
    }
    return OperationTable(domain_size, 3, table)


_MAX_SUPPORTS = 40
_MAX_DOMAIN = 8
_MAX_ARITY = 4


def find_totally_symmetric_polymorphism(
    s: Structure, k: int
) -> Optional[OperationTable]:
    """Search for a k-ary totally symmetric polymorphism, or None.

    A totally symmetric operation is determined by its value on each
    nonempty support set of size <= k, so this is a homomorphism search:
    the variables are the supports, and each k-tuple of tuples of a relation
    gives one atom on the supports of its columns. Exhaustive, hence
    hard-capped.
    """
    if k < 1:
        raise ValueError("arity must be >= 1")
    d = s.domain_size
    supports = [
        frozenset(c)
        for size in range(1, k + 1)
        for c in itertools.combinations(range(d), size)
    ]
    if d > _MAX_DOMAIN or k > _MAX_ARITY or len(supports) > _MAX_SUPPORTS:
        raise SearchCapExceeded(
            f"domain {d}, arity {k}: {len(supports)} supports exceeds the search cap"
        )
    if sum(len(ts) ** k for ts in (s.relations[n] for n, _ in s.signature)) > 2_000_000:
        raise SearchCapExceeded("relation tuple combinations exceed the search cap")
    names = {sup: f"s{i}" for i, sup in enumerate(supports)}
    atoms = dict.fromkeys(
        Rel(name, (names[frozenset(column)] for column in zip(*combo)))
        for name, _ in s.signature
        for combo in itertools.product(s.sorted_tuples(name), repeat=k)
    )
    result = hom_search(Instance.of(s.signature, atoms, names.values()), s)
    if not result.satisfiable:
        return None
    table = {
        args: result.assignment[names[frozenset(args)]]
        for args in itertools.product(range(d), repeat=k)
    }
    return OperationTable(d, k, table)
