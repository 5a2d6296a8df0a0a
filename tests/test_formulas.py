import copy
import dataclasses
import itertools
import pickle

import pytest

import cspsampling as cs
from cspsampling.formulas import (
    BOT,
    Eq,
    Instance,
    InstanceError,
    Neq,
    Rel,
    canonical_database,
    contract_equalities,
    validate,
)
from cspsampling.model import Signature, Structure

SIG = Signature([("E", 2), ("lt", 2)])


def inst(*atoms, declared=()):
    return Instance.of(SIG, atoms, declared)


def test_atoms_and_instances_survive_pickle_deep_copy_and_hashing():
    atoms = (Rel("E", ["x", "y"]), Eq("x", "z"), Neq("y", "z"), BOT)
    for atom in atoms:
        assert not hasattr(atom, "__dict__")  # slotted
        for field in dataclasses.fields(atom):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(atom, field.name, None)
        for twin in (pickle.loads(pickle.dumps(atom)), copy.deepcopy(atom)):
            assert type(twin) is type(atom) and twin == atom and hash(twin) == hash(atom)
    assert atoms[0].args == ("x", "y")
    for instance in (inst(*atoms[:3], declared=("w",)), inst(BOT)):
        for twin in (pickle.loads(pickle.dumps(instance)), copy.deepcopy(instance)):
            assert twin == instance and hash(twin) == hash(instance)
            assert twin.variables == instance.variables and twin.atoms == instance.atoms


def test_variable_order_is_first_occurrence_then_declared():
    i = inst(Rel("E", ("y", "x")), Eq("x", "z"), declared=("w", "y"))
    assert i.variables == ("y", "x", "z", "w")


def test_validate_flags_bot_and_arity():
    assert validate(inst(BOT)) == "contains-bot"
    assert validate(inst(Rel("lt", ("x", "y")))) == "well-formed"
    with pytest.raises(InstanceError):
        validate(inst(Rel("lt", ("x",))))
    with pytest.raises(InstanceError):
        validate(inst(Rel("nope", ("x",))))


def test_contract_single_merge():
    out, mapping = contract_equalities(inst(Rel("E", ("x", "y")), Eq("x", "y")))
    assert out.atoms == (Rel("E", ("x", "x")),)
    assert mapping == {"x": "x", "y": "x"}


def test_contract_chain_with_contradiction():
    out, mapping = contract_equalities(
        inst(Eq("x", "y"), Eq("y", "z"), Neq("x", "z"))
    )
    assert out.atoms == (cs.Bot(),)
    assert mapping["y"] == "x" and mapping["z"] == "x"


def test_contract_rewrites_through_representative():
    out, mapping = contract_equalities(
        inst(Rel("lt", ("x", "y")), Eq("y", "w"), Rel("lt", ("w", "z")))
    )
    assert out.atoms == (Rel("lt", ("x", "y")), Rel("lt", ("y", "z")))
    assert mapping["w"] == "y"


def test_contract_is_idempotent_exhaustively():
    # all instances with <= 3 variables and <= 3 atoms over a 2-symbol signature
    pool = ("x", "y", "z")
    universe = [
        Rel(sym, args)
        for sym, arity in SIG
        for args in itertools.product(pool, repeat=arity)
    ] + [Eq(a, b) for a, b in itertools.combinations(pool, 2)] + [
        Neq(a, b) for a, b in itertools.combinations(pool, 2)
    ]
    checked = 0
    for r in range(4):
        for combo in itertools.combinations(universe, r):
            original = Instance.of(SIG, combo, declared=pool)
            once, _ = contract_equalities(original)
            twice, _ = contract_equalities(once)
            assert once == twice
            checked += 1
    assert checked > 500


def test_contract_preserves_satisfiability_in_every_structure():
    import conftest as helpers

    pool = ("x", "y")
    targets = [
        Structure(SIG, 2, {"E": {(0, 1), (1, 0)}, "lt": {(0, 1)}}),
        Structure(SIG, 1, {"E": {(0, 0)}}),
        Structure(SIG, 3, {"E": {(0, 1)}, "lt": {(0, 1), (1, 2), (0, 2)}}),
    ]
    for instance in helpers.enumerate_instances(SIG, pool, 3):
        contracted, mapping = contract_equalities(instance)
        for target in targets:
            direct = helpers.brute_force_hom(instance, target)
            via = cs.hom_search(contracted, target)
            assert (direct is not None) == via.satisfiable
            if via.satisfiable:
                witness = {v: via.assignment[mapping[v]] for v in instance.variables}
                assert cs.check_witness(instance, target, witness)


def test_canonical_database_empty_conjunction_keeps_declared_variable():
    s = canonical_database(inst(declared=("x",)))
    assert s.domain_size == 1
    assert all(not ts for ts in s.relations.values())
    assert s.labels == ("x",)


def test_canonical_database_direct_transcription():
    s = canonical_database(inst(Rel("E", ("x", "y")), Rel("E", ("y", "x"))))
    assert s.domain_size == 2
    assert s.relations["E"] == {(0, 1), (1, 0)}


def test_canonical_database_of_alternating_cycle_formula():
    # the two-step alternating cycle formula yields a 4-cycle with edges
    # alternating between the two symbols
    sig = Signature([("E1", 2), ("E2", 2)])
    delta2 = Instance.of(
        sig,
        [
            Rel("E1", ("x1", "x2")),
            Rel("E2", ("x2", "x3")),
            Rel("E1", ("x3", "x4")),
            Rel("E2", ("x4", "x1")),
        ],
    )
    s = canonical_database(delta2)
    assert s.domain_size == 4
    assert s.relations["E1"] == {(0, 1), (2, 3)}
    assert s.relations["E2"] == {(1, 2), (3, 0)}
    from cspsampling.families import _alternating_cycle

    cycle = _alternating_cycle(2)
    assert (s.domain_size, s.relations) == (cycle.domain_size, cycle.relations)


def test_canonical_database_rejects_unnormalized():
    for bad in (Eq("x", "y"), Neq("x", "y"), BOT):
        with pytest.raises(InstanceError):
            canonical_database(inst(bad))


def test_reading_atoms_back_is_identity():
    s = canonical_database(
        inst(Rel("E", ("x", "y")), Rel("lt", ("y", "z")), declared=("w",))
    )
    atoms = [
        Rel(sym, tuple(s.labels[e] for e in t))
        for sym, _ in s.signature
        for t in s.sorted_tuples(sym)
    ]
    again = canonical_database(Instance.of(SIG, atoms, declared=s.labels))
    assert again == s
