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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import qf
from .combinatorics import iter_identifications
from .formulas import Eq, Instance, Neq, Rel, canonical_database, contract_equalities
from .model import Signature, Structure

Decider = Callable[[Instance], bool]

_MAX_ELEMENTS = 1_000_000  # in one sample
_MAX_PRODUCT_TUPLES = 8_000_000  # in all samples of one product level


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

    def size(self, n: int) -> int:
        return family_size(self, n)


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
    samples: Callable[[int], Sequence[Structure]]
    | Mapping[int, Sequence[Structure]]
    | Sequence[Structure],
    equality_matching: bool = False,
    no_pp_algebraicity: bool = False,
    decider: Optional[Decider] = None,
    name: str = "explicit",
) -> SampleFamily:
    """Wrap user-given structures verbatim as a sample family.

    ``samples`` may be a function of n, a mapping from n, or a constant
    list used for every n (the finite-model case).
    """
    if callable(samples):
        builder = samples
    elif isinstance(samples, Mapping):
        table = {int(k): tuple(v) for k, v in samples.items()}

        def builder(n: int) -> Sequence[Structure]:
            if n not in table:
                raise SamplingError(f"{name}: no samples defined for n={n}")
            return table[n]

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
    equality_matching: bool = False,
    name: str = "from-decider",
) -> SampleFamily:
    """Canonical databases of all decider-satisfiable small conjunctions.

    generate(n) enumerates the repetition-free conjunctions of relation
    atoms on at most n variables, up to variable renaming, keeps the ones
    the decision procedure accepts, and returns their canonical databases.
    The construction is exponential in n; ``max_n`` is a hard cost guard.
    """

    def builder(n: int) -> Sequence[Structure]:
        if n > max_n:
            raise SamplingError(
                f"{name}: n={n} exceeds the configured cost guard max_n={max_n}"
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

    return SampleFamily(
        signature, builder, equality_matching, False, decider, name
    )


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
    The total size at n is the product of the factor sizes at n. A level
    with a sample over ``_MAX_ELEMENTS`` elements, or whose samples would
    hold more than ``_MAX_PRODUCT_TUPLES`` tuples in all, raises
    SamplingError before any of them is built.
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
        # a factor tuple with k distinct values pairs with perm(other size, k)
        # tuples of the other factor
        tuples = sum(
            math.perm(other.domain_size, len(set(t)))
            for b1, b2 in pairs
            for own, other in ((b1, b2), (b2, b1))
            for rel in own.relations.values()
            for t in rel
        )
        if tuples > _MAX_PRODUCT_TUPLES:
            raise SamplingError(
                f"{s1.name}*{s2.name} at n={n} would hold {tuples:,} tuples, over "
                f"the product budget of {_MAX_PRODUCT_TUPLES:,}"
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


def _product_structure(
    b1: Structure, b2: Structure, signature: Signature, first_names: set[str]
) -> Structure:
    """One product sample; pair (a, b) gets element id a * |B2| + b.

    Relations are materialized by iterating over each factor-relation tuple,
    computing its coordinate equality pattern, and enumerating all
    other-factor tuples with the identical pattern (injective on distinct
    positions), which avoids scanning all |B1 x B2|^k candidate tuples.
    """
    size2 = b2.domain_size
    domain = b1.domain_size * size2
    labels = None
    if b1.labels is not None or b2.labels is not None:
        labels = [
            f"({b1.label(a)},{b2.label(b)})"
            for a in range(b1.domain_size)
            for b in range(size2)
        ]
    relations: dict[str, set[tuple[int, ...]]] = {}
    for name, arity in signature:
        own_first = name in first_names
        outer = b1 if own_first else b2
        inner = b2 if own_first else b1
        perms_cache: dict[int, list[tuple[int, ...]]] = {}
        rel: set[tuple[int, ...]] = set()
        positions = range(arity)
        for t in sorted(outer.relations[name]):
            block_of: dict[int, int] = {}
            pattern = []
            for a in t:
                if a not in block_of:
                    block_of[a] = len(block_of)
                pattern.append(block_of[a])
            perms = perms_cache.get(len(block_of))
            if perms is None:
                perms = list(itertools.permutations(range(inner.domain_size), len(block_of)))
                perms_cache[len(block_of)] = perms
            if own_first:
                bases = [a * size2 for a in t]
                for assign in perms:
                    rel.add(tuple(bases[i] + assign[pattern[i]] for i in positions))
            else:
                for assign in perms:
                    rel.add(tuple(assign[pattern[i]] * size2 + t[i] for i in positions))
        relations[name] = rel
    return Structure(signature, domain, relations, labels)


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


def equality_expansion(
    s: SampleFamily, defs: Sequence[tuple[str, int, qf.QFDef | str]]
) -> SampleFamily:
    """Expand every sample with relations defined over equality alone.

    Each definition may use only equality atoms between its variables; a
    definition mentioning a relation symbol is rejected. Equality matching
    is preserved. Requires the input family to be equality-matching.
    """
    if not s.equality_matching:
        raise SamplingError(f"{s.name} is not flagged equality-matching")
    parsed: list[tuple[str, int, qf.QFDef]] = []
    for name, arity, defn in defs:
        if isinstance(defn, str):
            defn = qf.parse_definition(defn)
        mentioned = qf.referenced_symbols(defn)
        if mentioned:
            raise SamplingError(
                f"definition of {name!r} mentions relation symbols {sorted(mentioned)}"
            )
        if qf.max_variable(defn) > arity:
            raise SamplingError(f"definition of {name!r} uses more than {arity} variables")
        parsed.append((name, arity, defn))
    signature = s.signature.union(Signature([(n, a) for n, a, _ in parsed]))

    def builder(n: int) -> Sequence[Structure]:
        out = []
        for sample in s.generate(n):
            relations = dict(sample.relations)
            for name, arity, defn in parsed:
                relations[name] = qf.evaluate_definition(defn, sample, arity)
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
