"""Quantifier-free definitions over a base structure's symbols and equality.

These definitions materialize expansion relations on generated samples: a
definition with free variables x1..xk denotes the set of k-tuples over a
base domain on which the formula holds. Sample builders list that set by
type (``define_by_type``): over the bases they build, a QF definition holds
on all tuples of a type or on none, so it is evaluated once per type and
the tuples of each satisfied type are listed directly. A type is a weak
ordering of the positions over a chain (``order_types``), or a set
partition of them with a part per block over a partition into unary parts,
a bare domain being one part (``part_types``). ``evaluate_definition``
tests every candidate tuple of any base; it stays as the oracle the typed
listing is checked against. The surface grammar is

    atom     :=  xI < xJ  |  xI = xJ  |  part(J)(xI)
    formula  :=  atom  |  !formula  |  formula & formula
              |  formula | formula  |  (formula)

with ``!`` binding tightest, then ``&``, then ``|``. ``xI < xJ`` refers to
the base symbol ``<`` and ``part(J)(xI)`` to the base symbol ``PJ``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .combinatorics import iter_block_labels, set_partition_counts
from .model import Signature, Structure

ORDER_SYMBOL = "<"


def part_symbol(j: int) -> str:
    return f"P{j}"


class DefinitionError(ValueError):
    """Raised for malformed definitions or references outside the base."""


# candidate tuples one evaluation may enumerate, and types plus listed
# tuples one typed listing may do; above 128**3 = 2,097,152
_MAX_CANDIDATES = 4_000_000


@dataclass(frozen=True)
class RelAtom:
    symbol: str
    args: tuple[int, ...]  # 1-based variable indices


@dataclass(frozen=True)
class EqAtom:
    left: int
    right: int


@dataclass(frozen=True)
class Not:
    inner: "QFDef"


@dataclass(frozen=True)
class And:
    parts: tuple["QFDef", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["QFDef", ...]


QFDef = RelAtom | EqAtom | Not | And | Or


def holds(
    defn: QFDef,
    values: tuple[int, ...],
    rel_test: Callable[[str, tuple[int, ...]], bool],
) -> bool:
    """Evaluate a definition on concrete values (1-based indices into them)."""
    if isinstance(defn, EqAtom):
        return values[defn.left - 1] == values[defn.right - 1]
    if isinstance(defn, RelAtom):
        return rel_test(defn.symbol, tuple(values[i - 1] for i in defn.args))
    if isinstance(defn, Not):
        return not holds(defn.inner, values, rel_test)
    if isinstance(defn, And):
        return all(holds(p, values, rel_test) for p in defn.parts)
    if isinstance(defn, Or):
        return any(holds(p, values, rel_test) for p in defn.parts)
    raise DefinitionError(f"not a definition node: {defn!r}")


def referenced_symbols(defn: QFDef) -> set[str]:
    if isinstance(defn, RelAtom):
        return {defn.symbol}
    if isinstance(defn, EqAtom):
        return set()
    if isinstance(defn, Not):
        return referenced_symbols(defn.inner)
    return set().union(*(referenced_symbols(p) for p in defn.parts)) if defn.parts else set()


def max_variable(defn: QFDef) -> int:
    if isinstance(defn, RelAtom):
        return max(defn.args)
    if isinstance(defn, EqAtom):
        return max(defn.left, defn.right)
    if isinstance(defn, Not):
        return max_variable(defn.inner)
    return max((max_variable(p) for p in defn.parts), default=0)


def check_definition(defn: QFDef, signature: Signature, k: int) -> None:
    for name in referenced_symbols(defn):
        if name not in signature:
            raise DefinitionError(f"definition references unknown symbol {name!r}")
    for atom in _atoms(defn):
        if isinstance(atom, RelAtom):
            arity = signature.arity(atom.symbol)
            if len(atom.args) != arity:
                raise DefinitionError(
                    f"{atom.symbol} expects {arity} arguments, got {len(atom.args)}"
                )
    m = max_variable(defn)
    if m > k:
        raise DefinitionError(f"definition uses x{m} but only {k} variables exist")


def _atoms(defn: QFDef) -> Iterable[QFDef]:
    if isinstance(defn, (RelAtom, EqAtom)):
        yield defn
    elif isinstance(defn, Not):
        yield from _atoms(defn.inner)
    else:
        for p in defn.parts:
            yield from _atoms(p)


def evaluate_definition(defn: QFDef, base: Structure, k: int) -> set[tuple[int, ...]]:
    """All k-tuples over the base domain satisfying the definition; more
    than ``_MAX_CANDIDATES`` candidates raise DefinitionError up front."""
    check_definition(defn, base.signature, k)
    if base.domain_size**k > _MAX_CANDIDATES:
        raise DefinitionError(
            f"{base.domain_size}**{k} candidate tuples exceed the evaluation "
            f"budget of {_MAX_CANDIDATES:,}"
        )
    relations = base.relations

    def rel_test(symbol: str, vals: tuple[int, ...]) -> bool:
        return vals in relations[symbol]

    out = set()
    for t in itertools.product(range(base.domain_size), repeat=k):
        if holds(defn, t, rel_test):
            out.add(t)
    return out


# A type of k-tuples: ``block_of[i]`` is the block of position i and the
# value the definition sees there; ``rel_test`` answers base atoms on block
# values; ``size`` counts the type's tuples and ``block_values()`` lists
# them, one value per block each.
QFType = tuple[
    tuple[int, ...],
    Callable[[str, tuple[int, ...]], bool],
    int,
    Callable[[], Iterable[tuple[int, ...]]],
]


def define_by_type(
    defn: QFDef, type_count: int, types: Iterable[QFType]
) -> set[tuple[int, ...]]:
    """The tuples of ``types`` on which the definition holds.

    ``types`` must cover every k-tuple over the base once, and the
    definition must have one truth value per type. The budget counts the
    ``type_count`` types plus the tuples of the satisfied ones; over
    ``_MAX_CANDIDATES`` a DefinitionError is raised before any type is
    evaluated, or before any tuple is listed once the satisfied types are
    known.
    """
    _check_work(type_count, 0)
    chosen = [
        (block_of, size, block_values)
        for block_of, rel_test, size, block_values in types
        if size and holds(defn, block_of, rel_test)
    ]
    _check_work(type_count, sum(size for _, size, _ in chosen))
    out: set[tuple[int, ...]] = set()
    for block_of, _, block_values in chosen:
        out.update(_list_type(block_of, block_values()))
    return out


def _check_work(types: int, tuples: int) -> None:
    if types + tuples > _MAX_CANDIDATES:
        raise DefinitionError(
            f"{types:,} types and {tuples:,} tuples exceed the evaluation "
            f"budget of {_MAX_CANDIDATES:,}"
        )


def _list_type(
    block_of: tuple[int, ...], block_values: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """Each tuple of a type from one value per block."""
    if len(block_of) > 1:
        return map(itemgetter(*block_of), block_values)
    return (tuple(vals[b] for b in block_of) for vals in block_values)


def _less(symbol: str, values: tuple[int, ...]) -> bool:
    return values[0] < values[1]


def order_types(n: int, k: int) -> tuple[int, Iterator[QFType]]:
    """The types of k-tuples over the chain 0 < ... < n-1, and their count.

    A type is a weak ordering of the k positions with at most n blocks; each
    block's value is its rank, and a type with m blocks has one tuple per
    increasing m-subset of the chain.
    """
    counts = set_partition_counts(k)
    count = sum(counts[m] * math.factorial(m) for m in range(min(k, n) + 1))

    def types() -> Iterator[QFType]:
        for label, m in iter_block_labels(k, n):
            subsets = partial(itertools.combinations, range(n), m)
            for ranks in itertools.permutations(range(m)):
                ranked = tuple(ranks[b] for b in label)
                yield ranked, _less, math.comb(n, m), subsets

    return count, types()


def part_types(n: int, m: int, k: int) -> tuple[int, Iterator[QFType]]:
    """The types of k-tuples over m parts of n points each, and their count.

    A type is a set partition of the k positions plus a part for each block;
    its tuples choose distinct points of each part for the blocks colored
    with it. Element i*m + j is the i-th point of part j+1. With m = 1 the
    parts are a bare domain of n elements, and the types its equality
    patterns.
    """
    part_of = {part_symbol(j + 1): j for j in range(m)}
    counts = set_partition_counts(k)
    count = sum(counts[b] * m**b for b in range(min(k, n * m) + 1))

    def types() -> Iterator[QFType]:
        for label, b in iter_block_labels(k, n * m):
            for colors in itertools.product(range(m), repeat=b):
                by_part: dict[int, list[int]] = {}
                for block, j in enumerate(colors):
                    by_part.setdefault(j, []).append(block)
                size = math.prod(math.perm(n, len(bs)) for bs in by_part.values())

                def rel_test(symbol: str, values: tuple[int, ...], colors=colors) -> bool:
                    return colors[values[0]] == part_of[symbol]

                yield label, rel_test, size, partial(_part_values, n, m, b, by_part)

    return count, types()


def _part_values(
    n: int, m: int, b: int, by_part: dict[int, list[int]]
) -> Iterator[tuple[int, ...]]:
    """Block values that give the blocks of each part distinct points."""
    parts = list(by_part.items())
    values = [0] * b
    for points in itertools.product(
        *(itertools.permutations(range(n), len(bs)) for _, bs in parts)
    ):
        for (j, blocks), chosen in zip(parts, points):
            for block, i in zip(blocks, chosen):
                values[block] = i * m + j
        yield tuple(values)


# --- parser ----------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> DefinitionError:
        return DefinitionError(f"{message} (at offset {self.pos} in {self.text!r})")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, s: str) -> None:
        self.skip_ws()
        if not self.text.startswith(s, self.pos):
            raise self.error(f"expected {s!r}")
        self.pos += len(s)

    def try_eat(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def eat_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a number")
        return int(self.text[start : self.pos])

    def eat_var(self) -> int:
        self.skip_ws()
        if self.peek() != "x":
            raise self.error("expected a variable like x1")
        self.pos += 1
        index = self.eat_int()
        if index < 1:
            raise self.error("variable indices start at 1")
        return index


def parse_definition(text: str) -> QFDef:
    toks = _Tokens(text)
    defn = _parse_or(toks)
    toks.skip_ws()
    if toks.pos != len(toks.text):
        raise toks.error("unexpected trailing input")
    return defn


def _parse_or(toks: _Tokens) -> QFDef:
    parts = [_parse_and(toks)]
    while toks.try_eat("|"):
        parts.append(_parse_and(toks))
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _parse_and(toks: _Tokens) -> QFDef:
    parts = [_parse_unary(toks)]
    while toks.try_eat("&"):
        parts.append(_parse_unary(toks))
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _parse_unary(toks: _Tokens) -> QFDef:
    if toks.try_eat("!"):
        return Not(_parse_unary(toks))
    if toks.try_eat("("):
        inner = _parse_or(toks)
        toks.eat(")")
        return inner
    return _parse_atom(toks)


def _parse_atom(toks: _Tokens) -> QFDef:
    toks.skip_ws()
    if toks.text.startswith("part", toks.pos):
        toks.eat("part")
        toks.eat("(")
        j = toks.eat_int()
        toks.eat(")")
        toks.eat("(")
        i = toks.eat_var()
        toks.eat(")")
        return RelAtom(part_symbol(j), (i,))
    left = toks.eat_var()
    if toks.try_eat("<"):
        return RelAtom(ORDER_SYMBOL, (left, toks.eat_var()))
    if toks.try_eat("="):
        return EqAtom(left, toks.eat_var())
    raise toks.error("expected '<' or '=' after variable")
