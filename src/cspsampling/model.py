"""Finite relational structures over explicit signatures.

Element ids are dense integers 0..domain_size-1; per-element labels are
cosmetic. Relation tuple sets are deduplicated; all printed or exported
output uses sorted lexicographic tuple order so results are deterministic.
All values are immutable after construction and safe to share across
concurrent solver runs.

Solvers make four queries of a relation, and every relation answers them
itself as a ``RuleRelation``: ``index()``, its projection and diagonal
masks; ``arc(watched, affected)``, the two-variable arc of one shape and
direction, made once per relation, whose object answers ``revise``
(narrow the affected mask against the watched one) and ``partners`` (the
affected values paired with one watched value); and ``support_masks``,
which revises an atom with three or more distinct variables a whole mask
at a time (the values each variable takes in the tuples within the given
masks). ``support_masks`` reads a tuple by its number of distinct values:
constant tuples are the diagonal, a tuple with two is a tuple of the arc
of its equality pattern, which the atom's variables fit when each lies in
one group of it, and only the tuples with three or more are scanned, by
each kind's ``wide_supports``. A ``ListedRelation`` is a frozenset of
tuples, indexed by one ``scan_index``, with ``TableArc`` arcs. Other rule
relations, such as a product sample's, keep the rule that defines them
and list a tuple only when a caller iterates them. ``Structure`` holds
relations and labels and passes each query on by name; ``shaped_masks``,
both directions' partner masks of a shape, is a view read off the two
arcs.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Set
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence


class SignatureError(ValueError):
    """A signature invariant was violated (duplicate name, bad arity, mismatch)."""


class TableArc:
    """One direction of a two-variable atom over listed partner masks.

    ``partners(value)`` is the mask of affected values paired with one
    watched value; ``revise(dom_affected, dom_watched)`` keeps the affected
    values with a partner in the watched mask. A watched mask has lost at
    most ``domain_size - |dom_watched|`` values, so by pigeonhole only
    affected values with that few partners can have lost them all; they are
    the only ones checked. ``to_affected`` maps a watched value to its
    affected partners and ``to_watched`` the reverse; each value on the
    ``diagonal`` is also its own partner.
    """

    __slots__ = ("_partners", "_supports", "_keys", "_by_size", "_domain_size")

    def __init__(self, rel: RuleRelation, to_affected: dict, to_watched: dict, diagonal: int):
        partners, supports = dict(to_affected), dict(to_watched)
        for v in mask_bits(diagonal):
            partners[v] = partners.get(v, 0) | 1 << v
            supports[v] = supports.get(v, 0) | 1 << v
        self._partners, self._supports = partners, supports
        self._keys = sum(1 << v for v in supports)
        self._by_size = tuple(sorted((m.bit_count(), v) for v, m in supports.items()))
        self._domain_size = rel.domain_size

    def partners(self, value: int) -> int:
        return self._partners.get(value, 0)

    def revise(self, dom_affected: int, dom_watched: int) -> int:
        new = dom_affected & self._keys
        threshold = self._domain_size - dom_watched.bit_count()
        if threshold:
            supports = self._supports
            for size, b in self._by_size:
                if size > threshold:
                    break
                bit = 1 << b
                if new & bit and not supports[b] & dom_watched:
                    new &= ~bit
        return new


class RuleRelation(Set):
    """A relation that answers the solver queries itself. ``in``, ``len``
    and iteration are its membership test, count and listing. A
    ``ListedRelation`` holds its tuples; any other kind keeps the rule that
    defines them and lists a tuple only when a caller iterates it.

    The queries below read ``scan``, which a kind builds as a
    ``scan_index`` of its tuples, and make arcs of its ``arc_class``; a kind
    whose scan keeps tuples with three or more distinct values reads them
    in its ``wide_supports``. A kind without a scan overrides the queries.
    """

    arity: int
    domain_size: int

    def index(self) -> tuple[tuple[int, ...], int]:
        """The mask of the values at each position, and the mask of the
        values v with the constant tuple (v, ..., v)."""
        return self.scan[:2]

    def arc(self, watched: tuple[int, ...], affected: tuple[int, ...]):
        """Arc revision of a two-variable atom, from the variable on the
        watched positions to the one on the affected positions: an object
        with ``revise`` and ``partners``, made once per shape and direction.
        Raises ValueError unless the two groups partition the positions."""
        arc = self._arcs.get((watched, affected))
        if arc is None:
            parts = arc_partners(self.scan, self.arity, watched, affected)
            arc = self._arcs[watched, affected] = self.arc_class(self, *parts)
        return arc

    def support_masks(self, args: tuple[str, ...], masks: Mapping[str, int]) -> dict[str, int]:
        """``Structure.support_masks`` of this relation, read off its scan
        by the number of distinct values in a tuple.

        A constant tuple (v, ..., v) gives every variable v when v is in
        every mask: the diagonal. A tuple with two distinct values has one
        equality pattern, two groups of positions each holding one value,
        and supports the atom only if the pattern keeps each variable's
        positions in one group; the variables of a group then share its
        value. So the tuples of a fitting pattern give one group's
        variables what the pattern's ``arc`` towards that group keeps of
        the AND of their masks against the AND of the other group's. The
        tuples with three or more distinct values are read by
        ``wide_supports``, only when the scan keeps some.
        """
        distinct, shape = atom_layout(args)
        firsts, repeats, fitting = self._fits.get(shape) or self._fit(shape)
        full = (1 << self.domain_size) - 1
        given = [masks.get(x, full) for x in distinct]
        common = self.scan[1]
        for m in given:
            common &= m
        found = [common] * len(distinct)
        for ones, twos, to_ones, to_twos in fitting:
            m1 = m2 = full
            for k in ones:
                m1 &= given[k]
            for k in twos:
                m2 &= given[k]
            kept = to_ones.revise(m1, m2)
            if kept:  # a value kept on one side has a partner on the other
                for k in ones:
                    found[k] |= kept
                kept = to_twos.revise(m2, m1)
                for k in twos:
                    found[k] |= kept
        if self.scan[3]:
            self.wide_supports(firsts, repeats, [masks.get(x) for x in distinct], found)
        return dict(zip(distinct, found))

    def _fit(self, shape: tuple[int, ...]) -> tuple:
        """An atom shape's first positions, its (position, first position)
        pairs of repeated variables, and (the variables of each group, the
        arc towards each) for every two-valued pattern of the scan that
        keeps each variable in one group; made once per shape."""
        firsts = tuple(dict.fromkeys(shape))
        repeats = tuple((p, f) for p, f in enumerate(shape) if p != f)
        fitting = []
        for pattern in self.scan[2]:
            if all(pattern[p] == pattern[f] for p, f in repeats):
                ones = tuple(k for k, p in enumerate(firsts) if pattern[p])
                twos = tuple(k for k, p in enumerate(firsts) if not pattern[p])
                at_ones = tuple(p for p in range(self.arity) if pattern[p])
                at_twos = tuple(p for p in range(self.arity) if not pattern[p])
                arcs = self.arc(at_twos, at_ones), self.arc(at_ones, at_twos)
                fitting.append((ones, twos, *arcs))
        plan = self._fits[shape] = firsts, repeats, fitting
        return plan

    def wide_supports(
        self, firsts: Sequence[int], repeats: Sequence[tuple[int, int]],
        given: Sequence[int | None], found: list[int],
    ) -> None:
        """ORs into ``found`` the values each variable takes in the scan's
        supporting tuples with three or more distinct values. The variables
        have their first positions at ``firsts`` and masks ``given`` (None
        for an unrestricted one), and ``repeats`` pairs each repeated
        position with its variable's first. A kind whose scan keeps such
        tuples defines it."""
        raise NotImplementedError

    def tuples_by_value(self, position: int) -> dict[int, tuple]:
        """The scan's tuples with three or more distinct values by the
        value at one position, grouped once per position and kept."""
        buckets = self._buckets.get(position)
        if buckets is None:
            grouped: dict[int, list] = {}
            for t in self.scan[3]:
                grouped.setdefault(t[position], []).append(t)
            buckets = self._buckets[position] = {v: tuple(ts) for v, ts in grouped.items()}
        return buckets

    @functools.cached_property
    def _buckets(self) -> dict[int, dict[int, tuple]]:
        return {}

    @functools.cached_property
    def _arcs(self) -> dict[tuple, object]:
        return {}

    @functools.cached_property
    def _fits(self) -> dict[tuple[int, ...], tuple]:
        return {}


class ListedRelation(frozenset, RuleRelation):
    """A relation given by its tuples, as a frozenset of them. Its scan
    is their ``scan_index``, built on first use, and its arcs are
    ``TableArc``s over that scan's partner masks. ``Structure`` checks
    the tuples before it makes one."""

    arc_class = TableArc

    def __new__(cls, tuples: Iterable[tuple[int, ...]], arity: int, domain_size: int):
        self = super().__new__(cls, map(tuple, tuples))
        self.arity, self.domain_size = arity, domain_size
        return self

    def __reduce__(self):
        return type(self), (tuple(self), self.arity, self.domain_size)

    @functools.cached_property
    def scan(self) -> tuple[tuple[int, ...], int, dict, tuple]:
        return scan_index(self, self.arity)

    def wide_supports(
        self, firsts: Sequence[int], repeats: Sequence[tuple[int, int]],
        given: Sequence[int | None], found: list[int],
    ) -> None:
        """``RuleRelation.wide_supports`` over the tuples that
        ``live_tuples`` names."""
        live = [None if m is None else list(mask_bits(m)) for m in given]
        checks = [(p, m) for p, m in zip(firsts, given) if m is not None]
        for t in live_tuples(self, firsts, live):
            for i, j in repeats:
                if t[i] != t[j]:
                    break
            else:
                for p, m in checks:
                    if not m >> t[p] & 1:
                        break
                else:
                    for k, p in enumerate(firsts):
                        found[k] |= 1 << t[p]


def scan_index(
    tuples: Iterable[tuple[int, ...]], arity: int
) -> tuple[tuple[int, ...], int, dict, tuple]:
    """Projection masks, diagonal mask, two-valued partner masks and the
    tuples with three or more distinct values of listed tuples, which must
    be iterable more than once.

    A tuple with exactly two distinct values is constant on exactly one
    pair of position groups, its equality pattern; its partner masks are
    filed under that pattern, forward from the group holding position 0.
    Constant tuples fit every shape and are kept only in the diagonal.
    """
    columns = ({t[p] for t in tuples} for p in range(arity))
    projections = tuple(sum(1 << v for v in c) for c in columns)
    diagonal = 0
    partners: dict[tuple[bool, ...], tuple[dict[int, int], dict[int, int]]] = {}
    wide = []
    for t in tuples:
        values = set(t)
        if len(values) == 1:
            diagonal |= 1 << t[0]
        elif len(values) == 2:
            a = t[0]
            pattern = tuple(map(a.__eq__, t))
            b = t[pattern.index(False)]
            forward, backward = partners.setdefault(pattern, ({}, {}))
            forward[a] = forward.get(a, 0) | 1 << b
            backward[b] = backward.get(b, 0) | 1 << a
        else:
            wide.append(t)
    return projections, diagonal, partners, tuple(wide)


def arc_partners(
    scan: tuple, arity: int, watched: tuple[int, ...], affected: tuple[int, ...]
) -> tuple[dict[int, int], dict[int, int], int]:
    """What an arc is built from, read off a ``scan_index``: the shape's
    partner dicts turned to run from the watched to the affected positions
    (each watched value to its affected partners, and back) and the
    diagonal. Raises ValueError unless the groups partition the positions."""
    diagonal, shapes = scan[1:3]
    forward = 0 in watched
    pattern = tuple(p in (watched if forward else affected) for p in range(arity))
    if all(pattern) or sorted(watched + affected) != list(range(arity)):
        raise ValueError(f"{watched} and {affected} do not partition {arity} positions")
    to_affected, to_watched = shapes.get(pattern, ({}, {}))
    return (to_affected, to_watched, diagonal) if forward else (to_watched, to_affected, diagonal)


@dataclass(frozen=True)
class Signature:
    """An ordered set of relation symbols with arities."""

    symbols: tuple[tuple[str, int], ...]

    def __init__(self, symbols: Mapping[str, int] | Iterable[tuple[str, int]]):
        if isinstance(symbols, Mapping):
            pairs = tuple(symbols.items())
        else:
            pairs = tuple((str(n), int(a)) for n, a in symbols)
        seen = set()
        for name, arity in pairs:
            if name in seen:
                raise SignatureError(f"duplicate relation symbol {name!r}")
            if arity < 1:
                raise SignatureError(f"arity of {name!r} must be >= 1, got {arity}")
            seen.add(name)
        object.__setattr__(self, "symbols", pairs)
        object.__setattr__(self, "_arities", dict(pairs))

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise SignatureError(f"unknown relation symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.symbols)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.symbols)

    def disjoint_from(self, other: "Signature") -> bool:
        return not (set(self._arities) & set(other._arities))

    def union(self, other: "Signature") -> "Signature":
        if not self.disjoint_from(other):
            overlap = sorted(set(self._arities) & set(other._arities))
            raise SignatureError(f"signatures overlap on {overlap}")
        return Signature(self.symbols + other.symbols)


@dataclass(frozen=True)
class Structure:
    """A finite relational structure: dense integer domain plus relations.

    ``relations`` has a ``RuleRelation`` of the symbol's arity on the
    domain for every signature symbol. One of that shape is kept as given;
    any other input is listed as a ``ListedRelation`` of checked tuples,
    except a rule relation that is not listed, which raises ValueError.
    The solvers keep their plans in ``_indexes``.
    """

    signature: Signature
    domain_size: int
    relations: Mapping[str, RuleRelation]
    labels: tuple[str, ...] | None = field(default=None)

    def __init__(
        self,
        signature: Signature,
        domain_size: int,
        relations: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
        labels: Sequence[str] | None = None,
    ):
        if domain_size < 0:
            raise ValueError("domain_size must be non-negative")
        relations = relations or {}
        for name in relations:
            if name not in signature:
                raise SignatureError(f"relation {name!r} not in signature")
        frozen: dict[str, RuleRelation] = {}
        for name, arity in signature:
            rel = relations.get(name, ())
            if isinstance(rel, RuleRelation):
                if (rel.arity, rel.domain_size) == (arity, domain_size):
                    frozen[name] = rel
                    continue
                if not isinstance(rel, ListedRelation):
                    raise ValueError(f"rule relation {name} is not {arity}-ary on {domain_size}")
            tuples = frozen[name] = ListedRelation(rel, arity, domain_size)
            for t in tuples:
                if len(t) != arity:
                    raise ValueError(f"tuple {t} has wrong length for {name}/{arity}")
                for e in t:
                    if not (0 <= e < domain_size):
                        raise ValueError(f"element {e} out of range in {name}{t}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != domain_size:
                raise ValueError("labels must cover the whole domain")
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "relations", frozen)
        object.__setattr__(self, "labels", labels)
        # the solvers' plans, filled lazily; not part of the value
        object.__setattr__(self, "_indexes", {})

    def __repr__(self) -> str:
        rels = ", ".join(f"{n}:{len(ts)}" for n, ts in self.relations.items())
        return f"Structure(|D|={self.domain_size}, {rels})"

    def sorted_tuples(self, name: str) -> list[tuple[int, ...]]:
        return sorted(self.relations[name])

    def label(self, element: int) -> str:
        if self.labels is not None:
            return self.labels[element]
        return str(element)

    # --- solver-facing queries, answered by the relations -----------------

    def support_masks(
        self, name: str, args: tuple[str, ...], masks: Mapping[str, int]
    ) -> dict[str, int]:
        """The values each variable of an atom takes in its supporting tuples.

        A tuple supports the atom ``name(args)`` when every variable takes
        one value across its positions, and that value lies in the
        variable's mask if ``masks`` has one; a variable without a mask is
        unrestricted. Returns one mask per distinct variable, all empty when
        no tuple supports the atom. The relation answers from its diagonal,
        the arcs of the two-valued equality patterns that keep each
        variable in one group, and a scan of its tuples with three or more
        distinct values alone (``RuleRelation.support_masks``)."""
        return self.relations[name].support_masks(args, masks)

    def projection_mask(self, name: str, position: int) -> int:
        """Bitmask of the values occurring at one position of a relation."""
        return self.relations[name].index()[0][position]

    def diagonal_mask(self, name: str) -> int:
        """Bitmask of the values v with the constant tuple (v, ..., v)."""
        return self.relations[name].index()[1]

    def shaped_masks(
        self, name: str, first_positions: tuple[int, ...], second_positions: tuple[int, ...]
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Partner masks of a two-group shape in both directions: each
        first-group value to the mask of its second-group partners, and back.
        Read off the relation's two arcs of the shape one value at a time,
        on each call; the groups must partition the relation's positions."""
        rel, pair = self.relations[name], (first_positions, second_positions)
        return tuple(
            {v: m for v in range(self.domain_size) if (m := arc.partners(v))}
            for arc in (rel.arc(*pair), rel.arc(*pair[::-1]))
        )


def mask_bits(mask: int) -> Iterator[int]:
    """Set bit positions of a mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.lru_cache(maxsize=1024)
def atom_layout(args: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """An atom's distinct variables and its shape: the first position of
    each position's variable."""
    return tuple(dict.fromkeys(args)), tuple(map(args.index, args))


def live_tuples(
    relation: RuleRelation, firsts: Sequence[int], live: Sequence[Sequence[int] | None]
) -> Iterable[tuple[int, ...]]:
    """Where a ``wide_supports`` scan starts: the ``tuples_by_value``
    buckets of the live values at the position whose variable has the
    fewest of them, or every tuple of the scan with three or more distinct
    values when no variable is restricted. ``live`` holds each variable's
    live values, None for an unrestricted one; a variable with none reads
    no tuple, and one with a single value reads one bucket."""
    start = None
    for p, values in zip(firsts, live):
        if values is not None and (start is None or len(values) < len(start[1])):
            start = p, values
    if start is None:
        return relation.scan[3]
    position, values = start
    buckets = relation.tuples_by_value(position)
    return itertools.chain.from_iterable(buckets.get(v, ()) for v in values)


def disjoint_union(structures: Sequence[Structure]) -> Structure:
    """Disjoint union with offset renumbering; tuples never cross summands."""
    structures = list(structures)
    if not structures:
        return Structure(Signature(()), 0)
    signature = structures[0].signature
    for s in structures[1:]:
        if s.signature != signature:
            raise SignatureError("disjoint_union requires a common signature")
    total = sum(s.domain_size for s in structures)
    relations: dict[str, set[tuple[int, ...]]] = {n: set() for n, _ in signature}
    labels: list[str] | None = [] if all(s.labels is not None for s in structures) else None
    offset = 0
    for s in structures:
        for name, tuples in s.relations.items():
            rel = relations[name]
            for t in tuples:
                rel.add(tuple(e + offset for e in t))
        if labels is not None:
            labels.extend(s.labels or ())
        offset += s.domain_size
    return Structure(signature, total, relations, labels)


def is_homomorphism(
    mapping: Mapping[int, int], source: Structure, target: Structure
) -> bool:
    """True iff every relation tuple of ``source`` maps into ``target``."""
    if source.signature != target.signature:
        raise SignatureError("homomorphism requires equal signatures")
    for e in range(source.domain_size):
        if e not in mapping:
            raise ValueError(f"map is not total: element {e} unmapped")
        if not (0 <= mapping[e] < target.domain_size):
            raise ValueError(f"map sends {e} outside the target domain")
    for name, tuples in source.relations.items():
        image = target.relations[name]
        for t in tuples:
            if tuple(mapping[e] for e in t) not in image:
                return False
    return True

