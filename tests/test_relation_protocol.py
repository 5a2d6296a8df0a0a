"""The relation protocol: any ``RuleRelation`` plugs into ``Structure`` and
the solvers, and structures of every relation kind copy and pickle."""

import copy
import itertools
import pickle
import random

import pytest

import conftest as helpers
import cspsampling as cs
from cspsampling.formulas import Neq, Rel
from cspsampling.model import ListedRelation, RuleRelation, Signature, Structure


def _above(mask):
    """The values above the least value of a mask."""
    return 0 if not mask else -((mask & -mask) << 1)


def _below(mask):
    """The values below the greatest value of a mask."""
    return 0 if not mask else (1 << mask.bit_length() - 1) - 1


class _OrderArc:
    """``lt`` revised by arithmetic: upward, each watched value supports
    every larger one; downward, every smaller one."""

    def __init__(self, full, upward):
        self.full, self.upward = full, upward

    def partners(self, value):
        return self.full & -(2 << value) if self.upward else (1 << value) - 1

    def revise(self, dom_affected, dom_watched):
        bound = _above(dom_watched) if self.upward else _below(dom_watched)
        return dom_affected & bound & self.full


class ArithmeticOrder(RuleRelation):
    """The strict order on 0..n-1 as a third kind of relation: its index,
    arcs and supports are computed, and it refuses to be listed."""

    arity = 2

    def __init__(self, n):
        self.domain_size, self.full = n, (1 << n) - 1

    def __contains__(self, t):
        return len(t) == 2 and 0 <= t[0] < t[1] < self.domain_size

    def __len__(self):
        return self.domain_size * (self.domain_size - 1) // 2

    def __iter__(self):
        raise AssertionError("the arithmetic order was listed")

    def index(self):
        return (self.full >> 1, self.full & ~1), 0

    def arc(self, watched, affected):
        if sorted(watched + affected) != [0, 1] or len(watched) != 1:
            raise ValueError(f"{watched} and {affected} do not partition 2 positions")
        return _OrderArc(self.full, watched == (0,))

    def support_masks(self, args, masks):
        x, y = args
        if x == y:
            return {x: 0}
        low, high = masks.get(x, self.full), masks.get(y, self.full)
        return {x: low & _below(high), y: high & _above(low)}


_SIG = Signature([("lt", 2), ("u", 1), ("t", 3)])


def _pair(rng, n):
    """One structure with the arithmetic ``lt`` and its listed copy; the
    other relations are random and shared."""
    others = {
        "u": {(v,) for v in range(n) if rng.random() < 0.6},
        "t": {tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(1, 3 * n))},
    }
    listed_lt = {(a, b) for a in range(n) for b in range(n) if a < b}
    return (
        Structure(_SIG, n, {"lt": ArithmeticOrder(n), **others}),
        Structure(_SIG, n, {"lt": listed_lt, **others}),
    )


def test_a_computed_relation_answers_the_queries_as_its_listed_copy():
    rng = random.Random(31)
    for n in range(1, 7):
        computed, listed = _pair(rng, n)
        assert not isinstance(computed.relations["lt"], ListedRelation)
        for p in (0, 1):
            assert computed.projection_mask("lt", p) == listed.projection_mask("lt", p)
        assert computed.diagonal_mask("lt") == listed.diagonal_mask("lt")
        for first, second in (((0,), (1,)), ((1,), (0,))):
            assert computed.shaped_masks("lt", first, second) == listed.shaped_masks(
                "lt", first, second
            )
            arcs = [s.relations["lt"].arc(first, second) for s in (computed, listed)]
            for dom_a, dom_w in itertools.product(range(1 << n), repeat=2):
                assert arcs[0].revise(dom_a, dom_w) == arcs[1].revise(dom_a, dom_w)
        for bad in (((0, 1), ()), ((0,), (0,)), ((0,), (2,))):
            for s in (computed, listed):
                with pytest.raises(ValueError):
                    s.shaped_masks("lt", *bad)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]
        for args in (("x", "y"), ("y", "x"), ("x", "x")):
            for mx, my in itertools.product(masks + [None], repeat=2):
                given = {k: m for k, m in (("x", mx), ("y", my)) if m is not None}
                assert computed.support_masks("lt", args, given) == listed.support_masks(
                    "lt", args, given
                ), (n, args, given)


def test_a_computed_relation_solves_as_its_listed_copy():
    rng = random.Random(37)
    cases = reflexive = wide = 0
    for n in range(1, 7):
        computed, listed = _pair(rng, n)
        for _ in range(40):
            inst = helpers.random_instance(_SIG, rng, max_vars=5, max_atoms=7)
            contracted, _ = cs.contract_equalities(inst)
            if contracted.has_bot():
                continue
            cases += 1
            rels = [a for a in contracted.atoms if isinstance(a, Rel)]
            reflexive += any(a.symbol == "lt" and a.args[0] == a.args[1] for a in rels)
            found = cs.hom_search(contracted, computed)
            assert found == cs.hom_search(contracted, listed), contracted.atoms
            if found.satisfiable:
                assert cs.check_witness(contracted, computed, found.assignment)
                assert cs.check_witness(inst, computed, cs.hom_search(inst, computed).assignment)
            if any(isinstance(a, Neq) for a in contracted.atoms):
                continue
            wide += any(len(set(a.args)) == 3 for a in rels)
            assert cs.arc_consistency(contracted, computed) == cs.arc_consistency(
                contracted, listed
            ), contracted.atoms
            assert cs.establish_23_consistency(
                contracted, computed
            ) == cs.establish_23_consistency(contracted, listed), contracted.atoms
    assert cases > 150 and reflexive > 10 and wide > 10


def test_structures_pickle_and_deep_copy_to_equal_structures(robot_theory):
    (listed,) = cs.alternating_cycles_sampling().generate(4)
    (product,) = robot_theory.generate(3)
    (expanded,) = cs.equality_expansion(robot_theory, [("same", 2, "x1 = x2")]).generate(3)
    rng = random.Random(41)
    for sample in (listed, product, expanded):
        instances = [
            helpers.random_instance(sample.signature, rng, max_vars=3, max_atoms=4)
            for _ in range(10)
        ]
        results = [cs.hom_search(inst, sample) for inst in instances]  # plans filled
        for twin in (pickle.loads(pickle.dumps(sample)), copy.deepcopy(sample)):
            assert twin == sample and twin is not sample
            assert twin.labels == sample.labels
            for name, rel in sample.relations.items():
                assert type(twin.relations[name]) is type(rel)
                assert (twin.relations[name].arity, twin.relations[name].domain_size) == (
                    rel.arity, rel.domain_size
                )
            assert [cs.hom_search(inst, twin) for inst in instances] == results


def test_a_listed_relation_of_another_shape_is_listed_again():
    (sample,) = cs.alternating_cycles_sampling().generate(2)
    e1 = sample.relations["E1"]
    assert isinstance(e1, ListedRelation) and isinstance(e1, RuleRelation)
    sig = Signature([("E1", 2)])
    assert Structure(sig, sample.domain_size, {"E1": e1}).relations["E1"] is e1
    wider = Structure(sig, sample.domain_size + 3, {"E1": e1}).relations["E1"]
    assert wider == e1 and wider.domain_size == sample.domain_size + 3
    assert wider.index() == e1.index()
    with pytest.raises(ValueError, match="out of range in E1"):
        Structure(sig, 1, {"E1": e1})
    with pytest.raises(ValueError, match="wrong length for E1/3"):
        Structure(Signature([("E1", 3)]), sample.domain_size, {"E1": e1})
