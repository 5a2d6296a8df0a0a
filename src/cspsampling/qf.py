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
``parse_expansion`` is the one check of an expansion's definitions against
its base signature, for the families and for ``equality_expansion`` alike.

``TokenStream`` is the one lexer of the package: it reads definitions here
and theory specs in ``io``, each grammar with its own token pattern and its
own exception.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
ExpansionDef = tuple[str, int, QFDef | str]  # relation name, arity, definition


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


def check_definition(defn: QFDef, signature: Signature, k: int) -> None:
    """Refuse the first atom, in text order, whose symbol is not in
    ``signature`` or whose argument count is not its arity; then a
    variable past ``xk``, naming the largest."""
    m = 0
    for atom in _atoms(defn):
        if isinstance(atom, EqAtom):
            m = max(m, atom.left, atom.right)
            continue
        if atom.symbol not in signature:
            raise DefinitionError(f"definition references unknown symbol {atom.symbol!r}")
        arity = signature.arity(atom.symbol)
        if len(atom.args) != arity:
            raise DefinitionError(
                f"{atom.symbol} expects {arity} arguments, got {len(atom.args)}"
            )
        m = max(m, *atom.args)
    if m > k:
        raise DefinitionError(f"definition uses x{m} but only {k} variables exist")


def parse_expansion(
    expansion: Sequence[ExpansionDef], base: Signature
) -> list[tuple[str, int, QFDef]]:
    """Each (name, arity, definition) of an expansion of ``base``, its
    definition parsed from text if need be and checked against ``base``
    and its arity; a failed check names the relation."""
    parsed = []
    for name, arity, defn in expansion:
        if isinstance(defn, str):
            defn = parse_definition(defn)
        try:
            check_definition(defn, base, int(arity))
        except DefinitionError as err:
            raise DefinitionError(f"definition of {name!r}: {err}") from None
        parsed.append((name, int(arity), defn))
    return parsed


def _atoms(defn: QFDef) -> Iterator[RelAtom | EqAtom]:
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


class Token(NamedTuple):
    kind: str
    value: str
    offset: int
    line: int
    column: int


class TokenStream:
    """The tokens of ``text``, one per match of a named group of ``pattern``,
    read eagerly; ``ws`` and ``comment`` matches are dropped. ``error`` builds
    the grammar's exception from a message and a token, also for a character
    that no group matches. The last token, ``end``, has the text's length as
    offset and the line and column of the token before it."""

    def __init__(self, text: str, pattern: re.Pattern, error: Callable[[str, Token], Exception]):
        self._error = error
        self.tokens: list[Token] = []
        line, line_start, pos = 1, 0, 0
        while pos < len(text):
            m = pattern.match(text, pos)
            if m is None:
                at = Token("", "", pos, line, pos - line_start + 1)
                raise error(f"unexpected character {text[pos]!r}", at)
            kind, value = m.lastgroup, m.group()
            if kind != "ws" and kind != "comment":
                self.tokens.append(Token(kind, value, pos, line, pos - line_start + 1))
            if "\n" in value:
                line += value.count("\n")
                line_start = pos + value.rindex("\n") + 1
            pos = m.end()
        last = self.tokens[-1] if self.tokens else Token("", "", 0, 1, 1)
        self.tokens.append(Token("end", "", len(text), last.line, last.column))
        self.pos = 0

    def error(self, message: str, tok: Token | None = None) -> Exception:
        """The grammar's exception, at ``tok`` or else at the next token."""
        return self._error(message, self.peek() if tok is None else tok)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "end":
            raise self.error("unexpected end of input", tok)
        self.pos += 1
        return tok

    def expect(self, value: str) -> Token:
        tok = self.next()
        if tok.value != value:
            raise self.error(f"expected {value!r}, found {tok.value!r}", tok)
        return tok

    def expect_kind(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {kind}, found {tok.value!r}", tok)
        return tok

    def expect_int(self) -> int:
        tok = self.expect_kind("int")
        try:
            return int(tok.value)
        except ValueError:  # more digits than Python's int() reads
            raise self.error(f"number of {len(tok.value):,} digits is too long", tok) from None

    def try_eat(self, value: str) -> bool:
        if self.tokens[self.pos].value == value:
            self.pos += 1
            return True
        return False


# ``x`` and its index are two tokens, so ``x 1`` reads as ``x1``; ``\d`` is
# what ``int`` reads. The catch-all ``bad`` leaves each error to the grammar.
_DEFINITION_TOKENS = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<punct>part|[x<=!&|()])|(?P<bad>.)", re.DOTALL
)


def parse_definition(text: str) -> QFDef:
    def error(message: str, tok: Token) -> DefinitionError:
        return DefinitionError(f"{message} (at offset {tok.offset} in {text!r})")

    toks = TokenStream(text, _DEFINITION_TOKENS, error)
    defn = _parse_or(toks)
    if toks.peek().kind != "end":
        raise toks.error("unexpected trailing input")
    return defn


def _parse_or(toks: TokenStream) -> QFDef:
    parts = [_parse_and(toks)]
    while toks.try_eat("|"):
        parts.append(_parse_and(toks))
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _parse_and(toks: TokenStream) -> QFDef:
    parts = [_parse_unary(toks)]
    while toks.try_eat("&"):
        parts.append(_parse_unary(toks))
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _parse_unary(toks: TokenStream) -> QFDef:
    if toks.try_eat("!"):
        return Not(_parse_unary(toks))
    if toks.try_eat("("):
        inner = _parse_or(toks)
        _eat(toks, ")")
        return inner
    return _parse_atom(toks)


def _parse_atom(toks: TokenStream) -> QFDef:
    if toks.try_eat("part"):
        _eat(toks, "(")
        j = _eat_int(toks)
        _eat(toks, ")")
        _eat(toks, "(")
        i = _eat_var(toks)
        _eat(toks, ")")
        return RelAtom(part_symbol(j), (i,))
    left = _eat_var(toks)
    if toks.try_eat("<"):
        return RelAtom(ORDER_SYMBOL, (left, _eat_var(toks)))
    if toks.try_eat("="):
        return EqAtom(left, _eat_var(toks))
    raise toks.error("expected '<' or '=' after variable")


def _eat(toks: TokenStream, value: str) -> None:
    if not toks.try_eat(value):
        raise toks.error(f"expected {value!r}")


def _eat_int(toks: TokenStream) -> int:
    if toks.peek().kind != "int":
        raise toks.error("expected a number")
    return toks.expect_int()


def _eat_var(toks: TokenStream) -> int:
    if not toks.try_eat("x"):
        raise toks.error("expected a variable like x1")
    tok = toks.peek()
    index = _eat_int(toks)
    if index < 1:
        after = tok._replace(offset=tok.offset + len(tok.value))
        raise toks.error("variable indices start at 1", after)
    return index
