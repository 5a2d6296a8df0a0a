"""Sample families and combinators that build new samplings from old.

A sample family maps an index n to a finite list of finite structures such
that an instance with at most n variables is satisfiable in the underlying
theory exactly when it is satisfiable in one of the structures. The
``equality_matching`` and ``no_pp_algebraicity`` fields are trusted
caller-supplied assertions about the theory: deciding them in general would
require reasoning about all models. ``verify_equality_matching`` provides
desk-scale evidence only.

Index convention: generate(0) = generate(1). Instances with zero variables
are decided syntactically, so the index never matters for them.

Samples inside one generate(n) result are kept as separate structures;
collapsing them into one disjoint union can destroy equality matching.

A product sample's relations are rule relations (``_ProductRelation``):
each stays the test on its owning factor's relation that defines it and
answers the solver queries from that relation's index and tuples, so a
level costs its factor tuples plus O(|D_own|) big-integer masks per shape,
not its |D|^k tuples, and an expansion of it lists only what it adds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import qf
from .combinatorics import iter_identifications
from .formulas import Eq, Instance, Neq, Rel, canonical_database, contract_equalities
from .model import ListedRelation, RuleRelation, Signature, Structure, live_tuples, mask_bits
from .model import scan_index

Decider = Callable[[Instance], bool]

_MAX_ELEMENTS = 1_000_000  # in one sample
_MAX_INDEX_BITS = 1_000_000_000  # mask bits the indexes of one product level can hold
_MAX_RENAMINGS = 250_000  # atom-set renamings one from-decider level may try


class SamplingError(ValueError):
    """Raised when a combinator's preconditions are not met."""


@dataclass(eq=False)
class SampleFamily:
    """An indexed family n -> finite list of structures, plus metadata."""

    signature: Signature
    builder: Callable[[int], Sequence[Structure]]
    equality_matching: bool = False
    no_pp_algebraicity: bool = False
    decider: Optional[Decider] = None
    name: str = "family"
    _cache: dict = field(default_factory=dict, repr=False)

    def generate(self, n: int) -> tuple[Structure, ...]:
        """Samples for index n; deterministic and cached per family."""
        n = max(1, n)
        cached = self._cache.get(n)
        if cached is None:
            cached = tuple(self.builder(n))
            for s in cached:
                if s.signature != self.signature:
                    raise SamplingError(
                        f"sample of {self.name} at n={n} has a foreign signature"
                    )
            self._cache[n] = cached
        return cached


def _check_elements(count: int, what: str) -> None:
    """Refuse a structure of more than ``_MAX_ELEMENTS`` elements."""
    if count > _MAX_ELEMENTS:
        raise SamplingError(
            f"{what} would have {count:,} elements, over the element budget "
            f"of {_MAX_ELEMENTS:,}"
        )


def family_size(family: SampleFamily, n: int) -> int:
    """Total number of elements across the samples at index n."""
    return sum(s.domain_size for s in family.generate(n))


def explicit_sampling(
    signature: Signature,
    samples: Callable[[int], Sequence[Structure]] | Sequence[Structure],
    equality_matching: bool = False,
    no_pp_algebraicity: bool = False,
    decider: Optional[Decider] = None,
    name: str = "explicit",
) -> SampleFamily:
    """Wrap user-given structures verbatim as a sample family.

    ``samples`` may be a function of n, or a constant list used for every
    n (the finite-model case).
    """
    if callable(samples):
        builder = samples
    else:
        constant = tuple(samples)

        def builder(n: int) -> Sequence[Structure]:
            return constant

    return SampleFamily(
        signature, builder, equality_matching, no_pp_algebraicity, decider, name
    )


# --- generic construction from a decision procedure -------------------------


def sampling_from_decider(
    signature: Signature,
    decider: Decider,
    max_n: int,
    name: str = "from-decider",
) -> SampleFamily:
    """Canonical databases of all decider-satisfiable small conjunctions.

    generate(n) enumerates the repetition-free conjunctions of relation
    atoms on at most n variables, up to variable renaming, keeps the ones
    the decision procedure accepts, and returns their canonical databases.
    The construction is exponential in n; ``max_n`` is a hard cost guard,
    and a level that would try more than ``_MAX_RENAMINGS`` atom-set
    renamings (``_renaming_count``) raises SamplingError before any is tried.
    """

    def builder(n: int) -> Sequence[Structure]:
        if n > max_n:
            raise SamplingError(
                f"{name}: n={n} exceeds the configured cost guard max_n={max_n}"
            )
        count = _renaming_count(signature, n)
        if count > _MAX_RENAMINGS:
            raise SamplingError(
                f"{name}: n={n} would try at least {count:,} atom-set renamings, over "
                f"the renaming budget of {_MAX_RENAMINGS:,}"
            )
        out: list[Structure] = []
        for v in range(1, n + 1):
            pool = tuple(f"x{i + 1}" for i in range(v))
            universe = sorted(
                (sym, args)
                for sym, arity in signature
                for args in itertools.product(range(v), repeat=arity)
            )
            seen: set[tuple] = set()
            for r in range(len(universe) + 1):
                for combo in itertools.combinations(universe, r):
                    key = _canonical_atom_set(combo, v)
                    if key in seen:
                        continue
                    seen.add(key)
                    inst = Instance.of(
                        signature,
                        [Rel(sym, tuple(pool[i] for i in args)) for sym, args in combo],
                        declared=pool,
                    )
                    if decider(inst):
                        out.append(canonical_database(inst))
        return out

    return SampleFamily(signature, builder, decider=decider, name=name)


def _renaming_count(signature: Signature, n: int) -> int:
    """Renamings a from-decider level tries: for each v <= n, every set of
    the atoms on v variables, v! renamings each. Counting stops once over
    ``_MAX_RENAMINGS``, so it stays cheap for any n and arity."""
    cap = _MAX_RENAMINGS.bit_length()  # 2**cap atom sets alone are over budget
    total = 0
    for v in range(1, n + 1):
        atoms = sum(v ** min(arity, cap) for _, arity in signature)
        total += 2 ** min(atoms, cap) * math.factorial(v)
        if total > _MAX_RENAMINGS:
            break
    return total


def _canonical_atom_set(atoms: Iterable[tuple[str, tuple[int, ...]]], v: int) -> tuple:
    best = None
    atoms = list(atoms)
    for perm in itertools.permutations(range(v)):
        relabeled = tuple(
            sorted((sym, tuple(perm[i] for i in args)) for sym, args in atoms)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


# --- product construction ----------------------------------------------------


def product_sampling(s1: SampleFamily, s2: SampleFamily) -> SampleFamily:
    """Sampling for the union of two theories with disjoint signatures.

    Requires both factors to be equality-matching samplings of theories
    without pp-algebraicity. A sample is built on the cartesian product of
    one sample from each factor: a tuple of pairs is in a relation of the
    first signature iff its first-coordinate equality pattern equals its
    second-coordinate equality pattern and the first-coordinate projection
    is in the factor relation; symmetrically for the second signature.
    The total size at n is the product of the factor sizes at n. Each
    relation of a sample is a ``_ProductRelation`` that keeps this
    definition as a test and lists no tuple unless a caller iterates it. A
    level with a sample over ``_MAX_ELEMENTS`` elements, or whose samples'
    indexes could hold more than ``_MAX_INDEX_BITS`` mask bits in all
    (``_index_bits``), raises SamplingError before any of them is built.
    """
    for s in (s1, s2):
        if not s.equality_matching:
            raise SamplingError(f"{s.name} is not flagged equality-matching")
        if not s.no_pp_algebraicity:
            raise SamplingError(f"{s.name} is not flagged no-pp-algebraicity")
    signature = s1.signature.union(s2.signature)  # raises on overlap
    first_names = set(s1.signature.names())

    def builder(n: int) -> Sequence[Structure]:
        pairs = list(itertools.product(s1.generate(n), s2.generate(n)))
        _check_elements(
            max((b1.domain_size * b2.domain_size for b1, b2 in pairs), default=0),
            f"a sample of {s1.name}*{s2.name} at n={n}",
        )
        bits = sum(_index_bits(b1, b2) for b1, b2 in pairs)
        if bits > _MAX_INDEX_BITS:
            raise SamplingError(
                f"{s1.name}*{s2.name} at n={n} could index {bits:,} mask bits, over "
                f"the index budget of {_MAX_INDEX_BITS:,}"
            )
        return [_product_structure(b1, b2, signature, first_names) for b1, b2 in pairs]

    decider = None
    if s1.decider is not None and s2.decider is not None:
        decider = _union_decider(s1.signature, s2.signature, s1.decider, s2.decider)
    return SampleFamily(
        signature,
        builder,
        equality_matching=True,
        no_pp_algebraicity=True,
        decider=decider,
        name=f"{s1.name}*{s2.name}",
    )


def _product_count(tuples: Iterable[tuple[int, ...]], other_size: int) -> int:
    """Product tuples given by factor tuples: one with k distinct values pairs
    with perm(other_size, k) tuples of the other factor."""
    return sum(math.perm(other_size, len(set(t))) for t in tuples)


def _factor_index(factor: RuleRelation, other_size: int) -> tuple:
    """The ``scan_index`` of a factor relation over the tuples that give
    product tuples: those with at most ``other_size`` distinct values. A
    listed relation that keeps every tuple answers with its own; any other
    is read through its tuples, since a product relation's own index is
    keyed by coordinate."""
    if other_size >= factor.arity and isinstance(factor, ListedRelation):
        return factor.scan
    return scan_index([t for t in factor if len(set(t)) <= other_size], factor.arity)


def _index_bits(b1: Structure, b2: Structure) -> int:
    """Mask bits the indexes of the product of two factors can hold.

    Each relation holds a projection per position and the diagonal, and its
    arcs hold, per shape and direction, two masks (the lifted partner mask
    and the row) per factor value with partners; every mask has |D| bits.
    """
    masks = 0
    for own, other in ((b1, b2), (b2, b1)):
        for name, arity in own.signature:
            partners = _factor_index(own.relations[name], other.domain_size)[2]
            masks += arity + 1 + 2 * sum(len(f) + len(b) for f, b in partners.values())
    return masks * b1.domain_size * b2.domain_size


class _ProductArc:
    """One direction of a two-variable atom on a product relation.

    Element (o, y) has own coordinate o in the owning factor and other
    coordinate y. A two-valued product tuple has two distinct values in
    both coordinates and a constant one is constant in both, so the
    partners of watched (o, y) are the lifted factor partners of o outside
    the column of y, plus (o, y) itself when it is on the lifted diagonal.
    ``revise`` keeps the self-supported values and the affected own rows
    with factor partners, then narrows the rows that can have lost support:
    the watched values within a row's lifted partners support the whole row
    when they reach two columns, the row outside their column when they lie
    in one, and none of it when there are none. A row o with factor
    partners P(o) has |P(o)| lifted partners in each of the k =
    ``other_size`` columns, so watched values in at most one column miss at
    least |P(o)|·(k - 1) of them; a watched mask misses |D| - |W| values,
    so only the rows whose need |P(o)|·(k - 1) is at most that are checked,
    in ascending order of need. That is O(|D_own|) mask operations at most,
    where listed partner masks would take one per product value.
    """

    __slots__ = (
        "_to_affected", "_rows", "_keys", "_diagonal", "_domain_size", "_own_scale",
        "_own_size", "_column",
    )

    def __init__(self, rel: _ProductRelation, to_affected: dict, to_watched: dict, diagonal: int):
        self._to_affected = to_affected
        k, row, scale = rel.other_size, rel.row, rel.own_scale
        rows = sorted(
            (lifted.bit_count() // k * (k - 1), o, lifted) for o, lifted in to_watched.items()
        )
        self._rows = tuple((need, row << o * scale, lifted) for need, o, lifted in rows)
        self._keys = sum(r for _, r, _ in self._rows)
        self._diagonal = diagonal
        self._domain_size = rel.domain_size
        self._own_scale = scale
        self._own_size = rel.own_size
        self._column = rel.column

    def partners(self, value: int) -> int:
        o = value // self._own_scale % self._own_size
        mask = self._to_affected.get(o, 0)
        if mask:
            mask &= ~(self._column << value - o * self._own_scale)
        if self._diagonal >> value & 1:
            mask |= 1 << value
        return mask

    def revise(self, dom_affected: int, dom_watched: int) -> int:
        own_scale, own_size, column = self._own_scale, self._own_size, self._column
        new = dom_affected & self._keys
        threshold = self._domain_size - dom_watched.bit_count()
        for need, row, lifted in self._rows:
            if need > threshold:
                break
            row_affected = new & row
            if row_affected:
                support = dom_watched & lifted
                if support:
                    low = (support & -support).bit_length() - 1
                    at = column << low - low // own_scale % own_size * own_scale
                    if support & at == support:
                        new ^= row_affected & at
                else:
                    new ^= row_affected
        return new | dom_affected & dom_watched & self._diagonal


class _ProductRelation(RuleRelation):
    """One relation of a product sample, kept as a test on its owning factor.

    An element of the product has an own coordinate o in the factor that
    owns the relation and another coordinate y in the other factor; its id
    is ``o * own_scale + y * other_scale``. A tuple is in the relation when
    its own-coordinate projection is in the factor relation and both
    coordinates have one equality pattern. Membership and ``len`` build no
    tuple; iterating generates them, one factor tuple at a time. The index
    is lifted from the factor's, arcs are ``_ProductArc``s over its lifted
    partner masks, and ``wide_supports`` scans the factor's tuples with
    three or more distinct values.
    """

    arc_class = _ProductArc

    def __init__(self, factor: RuleRelation, own_scale: int, other_scale: int, other_size: int):
        self.factor = factor
        self.arity = factor.arity
        self.own_scale = own_scale
        self.other_scale = other_scale
        self.own_size = factor.domain_size
        self.other_size = other_size
        self.domain_size = factor.domain_size * other_size
        # the elements with own coordinate 0, and those with other coordinate 0
        self.row = sum(1 << y * other_scale for y in range(other_size))
        self.column = sum(1 << o * own_scale for o in range(factor.domain_size))
        self._decode = (own_scale, self.own_size, self.domain_size, factor)
        self._len: Optional[int] = None

    def __contains__(self, t: object) -> bool:
        if len(t) != self.arity:
            return False
        own_scale, own_size, size, tuples = self._decode
        own = []
        # the coordinates have one equality pattern iff each own coordinate
        # has one element and each other coordinate one own coordinate
        element_at: dict[int, int] = {}
        own_at: dict[int, int] = {}
        for e in t:
            if not 0 <= e < size:
                return False
            o = e // own_scale % own_size
            if element_at.setdefault(o, e) != e or own_at.setdefault(e - o * own_scale, o) != o:
                return False
            own.append(o)
        return tuple(own) in tuples

    def __len__(self) -> int:
        if self._len is None:
            self._len = _product_count(self.factor, self.other_size)
        return self._len

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        positions = range(self.arity)
        perms_cache: dict[int, list[tuple[int, ...]]] = {}
        for t in self.factor:
            block_of: dict[int, int] = {}
            pattern = [block_of.setdefault(o, len(block_of)) for o in t]
            perms = perms_cache.get(len(block_of))
            if perms is None:
                perms = list(itertools.permutations(range(self.other_size), len(block_of)))
                perms_cache[len(block_of)] = perms
            bases = [o * self.own_scale for o in t]
            for assign in perms:
                yield tuple(
                    bases[i] + assign[pattern[i]] * self.other_scale for i in positions
                )

    @functools.cached_property
    def scan(self) -> tuple[tuple[int, ...], int, dict, tuple]:
        """The factor's ``scan_index`` lifted to the product, built on first use.

        Only factor tuples with at most ``other_size`` distinct values give
        product tuples. Projections and the diagonal are the factor's,
        lifted to every other coordinate. Each shape keeps, per direction,
        one lifted factor partner mask per own value with partners: the
        O(|D_own|) masks that ``_ProductArc`` answers from. The tuples with
        three or more distinct values stay factor tuples.
        """
        projections, diagonal, partners, wide = _factor_index(self.factor, self.other_size)
        shapes = {
            pattern: tuple({o: self.lift(m) for o, m in side.items()} for side in sides)
            for pattern, sides in partners.items()
        }
        return tuple(map(self.lift, projections)), self.lift(diagonal), shapes, wide

    def lift(self, mask: int) -> int:
        """The product elements whose own coordinate is in a factor mask."""
        return sum(self.row << o * self.own_scale for o in mask_bits(mask))

    def rows(self, mask: int) -> dict[int, int]:
        """A mask's live own values, each to its row of the mask: the other
        coordinates the mask holds with that own value, as bits of ``row``.
        A sparse mask is read bit by bit, a dense one row by row."""
        scale, own_size = self.own_scale, self.own_size
        if mask.bit_count() > own_size:
            return {o: r for o in range(own_size) if (r := mask >> o * scale & self.row)}
        rows: dict[int, int] = {}
        for v in mask_bits(mask):
            o = v // scale % own_size
            rows[o] = rows.get(o, 0) | 1 << v - o * scale
        return rows

    def wide_supports(
        self, firsts: Sequence[int], repeats: Sequence[tuple[int, int]],
        given: Sequence[Optional[int]], found: list[int],
    ) -> None:
        """``RuleRelation.wide_supports`` over the factor tuples with three
        to ``other_size`` distinct values.

        Each mask is split into its rows, one per live own value. The scan
        starts where ``live_tuples`` says: the buckets of the live own
        values of the variable with the fewest, or every such factor tuple.
        A factor tuple fits when each variable has one own value across its
        positions; each block of equal own values then gets the AND of its
        variables' rows, and the tuple is dropped as soon as a block's row
        is empty. The k >= 3 blocks need pairwise distinct other
        coordinates. A block of at least k values can always pick last,
        since the other blocks take at most k - 1 of its values; so when
        every block is that large each keeps its whole row, and otherwise
        ``_representatives`` finds the coordinates that leave the other
        blocks a system of distinct representatives. Kept rows are ORed per
        variable and own value, and shifted back once at the end, so a
        revision costs a few small-int operations per factor tuple it reads
        and no product tuple is formed.
        """
        rows = [None if m is None else self.rows(m) for m in given]
        checks = [(p, r) for p, r in zip(firsts, rows) if r is not None]
        free = [p for p, r in zip(firsts, rows) if r is None]
        row = self.row
        kept_rows: list[dict[int, int]] = [{} for _ in firsts]
        for t in live_tuples(self, firsts, rows):
            for i, j in repeats:
                if t[i] != t[j]:
                    break
            else:
                allowed: dict[int, int] = {}
                for p, r in checks:
                    o = t[p]
                    a = r.get(o, 0) & allowed.get(o, row)
                    if not a:
                        break
                    allowed[o] = a
                else:
                    for p in free:
                        allowed.setdefault(t[p], row)
                    k = len(allowed)
                    kept = allowed
                    for a in allowed.values():
                        if a.bit_count() < k:
                            kept = _representatives(allowed)
                            break
                    if kept is not None:
                        for f, p in zip(kept_rows, firsts):
                            o = t[p]
                            f[o] = f.get(o, 0) | kept[o]
        scale = self.own_scale
        for k, f in enumerate(kept_rows):
            found[k] |= sum(r << o * scale for o, r in f.items())


def _representatives(allowed: dict[int, int]) -> Optional[dict[int, int]]:
    """Per block, the values it takes in some system of distinct
    representatives of the blocks' nonempty masks, when some block has
    fewer values than there are blocks; None when there is no system.

    A block of at least k values, k the number of blocks, can always pick
    last, so only the systems of the small blocks are enumerated, each of
    them holding fewer than k values: a small block keeps the values it
    takes in one of them, and a large block the values that one of them
    leaves free.
    """
    k = len(allowed)
    small = [o for o, m in allowed.items() if m.bit_count() < k]
    kept = dict.fromkeys(small, 0)
    always = -1  # the values every system of the small blocks takes
    for choice in itertools.product(*([1 << v for v in mask_bits(allowed[o])] for o in small)):
        taken = 0
        for bit in choice:
            if taken & bit:
                break
            taken |= bit
        else:
            always &= taken
            for o, bit in zip(small, choice):
                kept[o] |= bit
    if always == -1:
        return None
    return {o: kept[o] if o in kept else m & ~always for o, m in allowed.items()}


def _product_structure(
    b1: Structure, b2: Structure, signature: Signature, first_names: set[str]
) -> Structure:
    """One product sample; pair (a, b) gets element id a * |B2| + b.

    Each relation stays a test on the factor that owns it; no product tuple
    is built here.
    """
    size1, size2 = b1.domain_size, b2.domain_size
    labels = None
    if b1.labels is not None or b2.labels is not None:
        labels = tuple(
            f"({b1.label(a)},{b2.label(b)})" for a in range(size1) for b in range(size2)
        )
    relations = {
        name: _ProductRelation(b1.relations[name], size2, 1, size2)
        if name in first_names
        else _ProductRelation(b2.relations[name], 1, size2, size1)
        for name, _ in signature
    }
    return Structure(signature, size1 * size2, relations, labels)


def _union_decider(
    sig1: Signature, sig2: Signature, dec1: Decider, dec2: Decider
) -> Decider:
    """Reference decision procedure for the union theory.

    An instance is satisfiable iff, for some identification pattern of its
    variables consistent with the disequalities, both restrictions (each
    conjoined with the full pattern as equalities and disequalities) are
    satisfiable in their own theory. Exponential; a test oracle only.
    """
    first_names = set(sig1.names())

    def decider(inst: Instance) -> bool:
        contracted, _ = contract_equalities(inst)
        if contracted.has_bot():
            return False
        variables = contracted.variables
        neq_pairs = [
            (a.left, a.right) for a in contracted.atoms if isinstance(a, Neq)
        ]
        rel_atoms = [a for a in contracted.atoms if isinstance(a, Rel)]
        for blocks, rep in iter_identifications(variables, neq_pairs):
            reps = [block[0] for block in blocks]
            all_apart = [Neq(a, b) for a, b in itertools.combinations(reps, 2)]
            ok = True
            for sig, dec in ((sig1, dec1), (sig2, dec2)):
                own = [
                    Rel(a.symbol, tuple(rep[v] for v in a.args))
                    for a in rel_atoms
                    if (a.symbol in first_names) == (sig is sig1)
                ]
                part = Instance.of(sig, own + all_apart, declared=reps)
                if not dec(part):
                    ok = False
                    break
            if ok:
                return True
        return False

    return decider


# --- expansion by equality-definable relations -------------------------------


def equality_expansion(s: SampleFamily, defs: Sequence[qf.ExpansionDef]) -> SampleFamily:
    """Expand every sample with relations defined over equality alone.

    The definitions are checked by ``qf.parse_expansion`` over the empty
    signature, so each may use only equality atoms between its variables.
    A definition that does not parse, mentions a relation symbol or uses a
    variable past its arity raises SamplingError. A defined relation
    is listed by equality pattern (``qf.part_types`` with one part): the
    definition is evaluated once per set partition of its arguments, and
    each satisfied partition is listed by the injective maps of its blocks
    into the sample's domain. Equality matching is preserved. Requires the
    input family to be equality-matching.
    """
    if not s.equality_matching:
        raise SamplingError(f"{s.name} is not flagged equality-matching")
    try:
        parsed = qf.parse_expansion(defs, Signature([]))
    except qf.DefinitionError as err:
        raise SamplingError(str(err)) from None
    signature = s.signature.union(Signature([(n, a) for n, a, _ in parsed]))

    def builder(n: int) -> Sequence[Structure]:
        out = []
        for sample in s.generate(n):
            relations = dict(sample.relations)
            for name, arity, defn in parsed:
                relations[name] = qf.define_by_type(
                    defn, *qf.part_types(sample.domain_size, 1, arity)
                )
            out.append(Structure(signature, sample.domain_size, relations, sample.labels))
        return out

    decider = None
    if s.decider is not None:
        decider = _expansion_decider(s, {n: (a, d) for n, a, d in parsed})
    return SampleFamily(
        signature,
        builder,
        equality_matching=True,
        no_pp_algebraicity=s.no_pp_algebraicity,
        decider=decider,
        name=f"{s.name}+eq",
    )


def _expansion_decider(
    s: SampleFamily, defined: dict[str, tuple[int, qf.QFDef]]
) -> Decider:
    """Decide instances over the expanded signature via the base decider.

    Defined atoms depend only on which variables coincide, so enumerate
    identification patterns: under a fixed pattern every defined atom has a
    truth value, and the residue is an instance for the base theory.
    """
    base_decider = s.decider

    def decider(inst: Instance) -> bool:
        contracted, _ = contract_equalities(inst)
        if contracted.has_bot():
            return False
        variables = contracted.variables
        neq_pairs = [
            (a.left, a.right) for a in contracted.atoms if isinstance(a, Neq)
        ]
        base_atoms = []
        defined_atoms = []
        for a in contracted.atoms:
            if isinstance(a, Rel) and a.symbol in defined:
                defined_atoms.append(a)
            elif isinstance(a, Rel):
                base_atoms.append(a)
        for blocks, rep in iter_identifications(variables, neq_pairs):
            block_index = {v: i for i, block in enumerate(blocks) for v in block}
            ok = True
            for a in defined_atoms:
                _, defn = defined[a.symbol]
                values = tuple(block_index[v] for v in a.args)
                if not qf.holds(defn, values, lambda *_: False):
                    ok = False
                    break
            if not ok:
                continue
            reps = [block[0] for block in blocks]
            all_apart = [Neq(x, y) for x, y in itertools.combinations(reps, 2)]
            residue = Instance.of(
                s.signature,
                [Rel(a.symbol, tuple(rep[v] for v in a.args)) for a in base_atoms]
                + all_apart,
                declared=reps,
            )
            if base_decider(residue):
                return True
        return False

    return decider


# --- desk-scale equality-matching verification --------------------------------


@dataclass(frozen=True)
class EqMatchCounterexample:
    n: int
    instance: Instance
    decider_verdict: bool
    sampling_verdict: bool


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checked: int
    counterexample: Optional[EqMatchCounterexample] = None


def verify_equality_matching(
    s: SampleFamily, n_max: int, vars_max: int, atoms_max: int
) -> VerificationReport:
    """Exhaustively compare the family against its reference decider.

    Enumerates conjunctions of relation atoms (bounded variables and atom
    count) together with every pattern of equalities and disequalities on
    the variable pool, and checks that the decider's verdict matches
    satisfiability in some sample at each index. Returns the first
    counterexample found, or success with the number of cases checked.
    """
    from .solvers import hom_search

    if s.decider is None:
        raise SamplingError(f"{s.name} has no reference decider")
    checked = 0
    for n in range(1, n_max + 1):
        samples = s.generate(n)
        for v in range(1, min(n, vars_max) + 1):
            pool = tuple(f"x{i + 1}" for i in range(v))
            universe = [
                Rel(sym, args)
                for sym, arity in s.signature
                for args in itertools.product(pool, repeat=arity)
            ]
            pairs = list(itertools.combinations(pool, 2))
            for r in range(min(atoms_max, len(universe)) + 1):
                for combo in itertools.combinations(universe, r):
                    for pattern in itertools.product((None, "eq", "neq"), repeat=len(pairs)):
                        side: list = []
                        for (a, b), kind in zip(pairs, pattern):
                            if kind == "eq":
                                side.append(Eq(a, b))
                            elif kind == "neq":
                                side.append(Neq(a, b))
                        inst = Instance.of(s.signature, list(combo) + side, declared=pool)
                        expected = s.decider(inst)
                        got = any(hom_search(inst, b).satisfiable for b in samples)
                        checked += 1
                        if expected != got:
                            return VerificationReport(
                                False,
                                checked,
                                EqMatchCounterexample(n, inst, expected, got),
                            )
    return VerificationReport(True, checked)
