import itertools

import pytest

import cspsampling as cs
import cspsampling.qf as qf
from cspsampling.model import Signature, Structure


CHAIN3 = Structure(
    Signature([("<", 2)]),
    3,
    {"<": {(0, 1), (0, 2), (1, 2)}},
)


CHAIN45 = Structure(
    Signature([("<", 2)]),
    45,
    {"<": set(itertools.combinations(range(45), 2))},
)


def tuple_sets(defn, base, k):
    """Independent evaluator: compute satisfying-tuple sets bottom-up.

    Combines explicit tuple sets with union/intersection/complement, never
    evaluating a formula on a single tuple, so it exercises a different
    code path than qf.holds.
    """
    universe = set(itertools.product(range(base.domain_size), repeat=k))
    if isinstance(defn, qf.EqAtom):
        return {t for t in universe if t[defn.left - 1] == t[defn.right - 1]}
    if isinstance(defn, qf.RelAtom):
        rel = base.relations[defn.symbol]
        return {
            t for t in universe if tuple(t[i - 1] for i in defn.args) in rel
        }
    if isinstance(defn, qf.Not):
        return universe - tuple_sets(defn.inner, base, k)
    if isinstance(defn, qf.And):
        out = set(universe)
        for p in defn.parts:
            out &= tuple_sets(p, base, k)
        return out
    out = set()
    for p in defn.parts:
        out |= tuple_sets(p, base, k)
    return out


def test_equality_diagonal():
    got = qf.evaluate_definition(qf.parse_definition("x1 = x2"), CHAIN3, 2)
    assert got == {(0, 0), (1, 1), (2, 2)}


def test_inequality_on_two_elements():
    two = Structure(Signature([("<", 2)]), 2, {"<": {(0, 1)}})
    got = qf.evaluate_definition(qf.parse_definition("!(x1 = x2)"), two, 2)
    assert got == {(0, 1), (1, 0)}


def test_min_of_two_definition_matches_integer_min():
    defn = qf.parse_definition(
        "(x1 = x2 & !(x3 < x2)) | (x1 = x3 & !(x2 < x3))"
    )
    got = qf.evaluate_definition(defn, CHAIN3, 3)
    expected = {
        (a, b, c)
        for a, b, c in itertools.product(range(3), repeat=3)
        if a == min(b, c)
    }
    assert got == expected
    assert len(got) == 9


@pytest.mark.parametrize(
    "text",
    [
        "x1 < x2",
        "x1 = x2 | x2 < x1",
        "!(x1 < x2) & !(x2 < x1)",
        "((x1 = x2))",
        "!(x1 = x2) & (x2 < x3 | x3 < x2) & x1 = x1",
    ],
)
def test_evaluator_agrees_with_tuple_set_semantics(text):
    defn = qf.parse_definition(text)
    k = max(3, qf.max_variable(defn))
    assert qf.evaluate_definition(defn, CHAIN3, k) == tuple_sets(defn, CHAIN3, k)


def test_part_atom_parsing():
    defn = qf.parse_definition("part(2)(x1) & !(x1 = x2)")
    base = Structure(
        Signature([("P1", 1), ("P2", 1)]),
        3,
        {"P1": {(0,)}, "P2": {(1,), (2,)}},
    )
    got = qf.evaluate_definition(defn, base, 2)
    assert got == {(1, 0), (1, 2), (2, 0), (2, 1)}


def test_parser_precedence_not_binds_tightest():
    # !a & b parses as (!a) & b
    defn = qf.parse_definition("!x1 = x2 & x1 < x2")
    assert isinstance(defn, qf.And)
    assert isinstance(defn.parts[0], qf.Not)


def test_parse_errors_have_positions():
    for bad in ("x1 <", "x1 ? x2", "(x1 = x2", "x1 = x2)", "part(1)x2", "x0 < x1"):
        with pytest.raises(qf.DefinitionError):
            qf.parse_definition(bad)


def test_definition_validation_errors():
    with pytest.raises(qf.DefinitionError):
        qf.evaluate_definition(qf.RelAtom("missing", (1,)), CHAIN3, 1)
    with pytest.raises(qf.DefinitionError):
        qf.evaluate_definition(qf.parse_definition("x1 < x3"), CHAIN3, 2)
    with pytest.raises(qf.DefinitionError):
        qf.evaluate_definition(qf.RelAtom("<", (1,)), CHAIN3, 1)


def test_evaluation_budget_is_checked_before_enumerating(monkeypatch):
    def enumerated(*args):
        raise AssertionError("a candidate tuple was evaluated")

    two = Structure(Signature([("<", 2)]), 2, {"<": {(0, 1)}})
    defn = qf.parse_definition("x1 = x2")
    k = qf._MAX_CANDIDATES.bit_length()  # smallest k with 2**k over the budget
    monkeypatch.setattr(qf, "holds", enumerated)
    with pytest.raises(qf.DefinitionError, match="budget"):
        qf.evaluate_definition(defn, two, k)
    monkeypatch.undo()
    # the budget counts candidates, not variables: one element, 83 variables
    one = Structure(Signature([("<", 2)]), 1, {})
    assert qf.evaluate_definition(defn, one, 83) == {(0,) * 83}


def test_typed_listing_admits_what_candidate_counting_refused():
    # 45**4 = 4,100,625 candidates; C(45, 4) = 148,995 tuples of one type
    fam = cs.dense_order_sampling([("chain", 4, "x1 < x2 & x2 < x3 & x3 < x4")])
    with pytest.raises(qf.DefinitionError, match="budget"):
        qf.evaluate_definition(qf.parse_definition("x1 < x2"), CHAIN45, 4)
    (sample,) = fam.generate(45)
    assert sample.relations["chain"] == set(itertools.combinations(range(45), 4))


def test_typed_listing_budget_is_checked_before_listing(monkeypatch):
    def listed(*args):
        raise AssertionError("a tuple was listed")

    # every 4-tuple at level 50: 75 types and 6,250,000 tuples
    fam = cs.dense_order_sampling([("all", 4, "x1 = x1")])
    monkeypatch.setattr(qf, "_list_type", listed)
    with pytest.raises(qf.DefinitionError, match="budget"):
        fam.generate(50)
    # the types alone are counted before any is evaluated
    monkeypatch.setattr(qf, "holds", listed)
    wide = cs.dense_order_sampling([("wide", 12, "x1 = x1")])
    with pytest.raises(qf.DefinitionError, match="types .* budget"):
        wide.generate(12)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_type_counts_and_sizes_cover_every_tuple_once(k):
    # the count is what the budget reads before any type is evaluated, and
    # the sizes what it reads before any tuple is listed
    for n in range(6):
        count, types = qf.order_types(n, k)
        types = list(types)
        assert count == len(types)
        assert sum(size for _, _, size, _ in types) == n**k
        for m in (1, 2, 3):
            count, types = qf.part_types(n, m, k)
            types = list(types)
            assert count == len(types)
            assert sum(size for _, _, size, _ in types) == (n * m) ** k
