"""Conjunctions of atomic formulas and their normalization.

An instance is a conjunction of relation atoms, equalities, disequalities
and the falsum atom over named variables. Variables are plain strings;
the canonical database orders elements by first occurrence, so it is
deterministic. Any normalization that discovers a contradiction rewrites
the instance to the single falsum atom: solvers need only one
unsatisfiability sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .combinatorics import union_find
from .model import Signature, Structure


@dataclass(frozen=True, slots=True)
class Rel:
    symbol: str
    args: tuple[str, ...]

    def __init__(self, symbol: str, args: Iterable[str]):
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True, slots=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class Neq:
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class Bot:
    pass


Atom = Rel | Eq | Neq | Bot
BOT = Bot()


def atom_variables(atom: Atom) -> tuple[str, ...]:
    if isinstance(atom, Rel):
        return atom.args
    if isinstance(atom, (Eq, Neq)):
        return (atom.left, atom.right)
    return ()


class InstanceError(ValueError):
    """Raised for atoms that do not fit the instance's signature."""


@dataclass(frozen=True)
class Instance:
    """A conjunction of atoms plus its ordered variable set.

    The variable set is the union of names occurring in atoms, in first
    occurrence order, followed by any declared-but-unused names. Declaring
    a variable without atoms is how an instance says "this variable exists
    but is unconstrained".
    """

    signature: Signature
    atoms: tuple[Atom, ...]
    variables: tuple[str, ...]

    @classmethod
    def of(
        cls,
        signature: Signature,
        atoms: Iterable[Atom],
        declared: Sequence[str] = (),
    ) -> "Instance":
        atoms = tuple(atoms)
        seen: dict[str, None] = {}
        for atom in atoms:
            for v in atom_variables(atom):
                seen.setdefault(v)
        for v in declared:
            seen.setdefault(v)
        return cls(signature, atoms, tuple(seen))

    def has_bot(self) -> bool:
        return Bot in map(type, self.atoms)


def validate(inst: Instance) -> str:
    """Check well-formedness; returns ``"well-formed"`` or ``"contains-bot"``.

    Raises InstanceError on unknown symbols or arity mismatches.
    """
    arities = dict(inst.signature)
    for atom in inst.atoms:
        if isinstance(atom, Rel):
            check_atom(atom, arities)
    return "contains-bot" if inst.has_bot() else "well-formed"


def check_atom(atom: Rel, arities: Mapping[str, int]) -> None:
    """Raise InstanceError unless ``arities`` has the atom's symbol, with
    as many places as the atom has arguments."""
    arity = arities.get(atom.symbol)
    if arity is None:
        raise InstanceError(f"unknown relation symbol {atom.symbol!r}")
    if len(atom.args) != arity:
        raise InstanceError(f"{atom.symbol} expects {arity} arguments, got {len(atom.args)}")


def contract_equalities(inst: Instance) -> tuple[Instance, dict[str, str]]:
    """Remove equality atoms by merging variables into representatives.

    Each equality class is replaced by its first-occurring variable.
    Disequalities are rewritten to representatives; a disequality between
    identical representatives collapses the instance to falsum. Repeated
    atoms are dropped. Idempotent: an instance without equalities keeps its
    atom objects, and comes back as it is when nothing repeats or collapses.
    """
    mapping = {v: v for v in inst.variables}
    kinds = set(map(type, inst.atoms))
    equalities = [a for a in inst.atoms if isinstance(a, Eq)] if Eq in kinds else []
    if equalities:
        find, union = union_find(inst.variables)
        for atom in equalities:
            union(atom.left, atom.right)
        mapping = {v: find(v) for v in inst.variables}
    variables = tuple(dict.fromkeys(mapping.values()))

    new_atoms = inst.atoms  # relation atoms alone need no rewriting
    if not kinds <= {Rel}:
        new_atoms = []
        for atom in inst.atoms:
            if isinstance(atom, Eq):
                continue
            if isinstance(atom, Bot):
                return Instance(inst.signature, (BOT,), variables), mapping
            if isinstance(atom, Neq):
                left, right = mapping[atom.left], mapping[atom.right]
                if left == right:
                    return Instance(inst.signature, (BOT,), variables), mapping
                if equalities:
                    atom = Neq(left, right)
            elif equalities:
                atom = Rel(atom.symbol, tuple(mapping[a] for a in atom.args))
            new_atoms.append(atom)
    atoms = tuple(dict.fromkeys(new_atoms))
    if len(atoms) == len(inst.atoms):
        return inst, mapping
    return Instance(inst.signature, atoms, variables), mapping


def canonical_database(inst: Instance) -> Structure:
    """The structure whose elements are the instance's variables and whose
    relations are exactly its relation atoms.

    Rejects instances still containing equalities, disequalities or falsum;
    run contract_equalities first and check for falsum.
    """
    validate(inst)
    for atom in inst.atoms:
        if not isinstance(atom, Rel):
            raise InstanceError(
                "canonical database is defined for relation atoms only; "
                "normalize with contract_equalities and handle falsum first"
            )
    index = {v: i for i, v in enumerate(inst.variables)}
    relations: dict[str, set[tuple[int, ...]]] = {n: set() for n, _ in inst.signature}
    for atom in inst.atoms:
        relations[atom.symbol].add(tuple(index[a] for a in atom.args))
    return Structure(inst.signature, len(inst.variables), relations, inst.variables)
