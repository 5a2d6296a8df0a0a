import itertools
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cspsampling as cs
from cspsampling.formulas import Eq, Instance, Neq, Rel


def test_dense_order_default_is_bare_chain():
    fam = cs.dense_order_sampling()
    (s,) = fam.generate(2)
    assert s.domain_size == 2
    assert s.relations["<"] == {(0, 1)}
    assert s.labels == ("1", "2")
    (one,) = fam.generate(1)
    assert one.domain_size == 1 and one.relations["<"] == frozenset()


def test_dense_order_min3_expansion_at_two():
    import conftest as helpers

    fam = helpers.order_family()
    (s,) = fam.generate(2)
    # brute force: all 8 triples against integer minimum
    expected = {
        (a, b, c)
        for a, b, c in itertools.product(range(2), repeat=3)
        if a == min(b, c)
    }
    assert s.relations["min3"] == expected
    assert s.relations["min3"] == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1)}


def test_dense_order_decider_agrees_on_order_patterns():
    fam = cs.dense_order_sampling()
    sig = fam.signature
    two_cycle = Instance.of(sig, [Rel("<", ("x", "y")), Rel("<", ("y", "x"))])
    chain = Instance.of(sig, [Rel("<", ("x", "y")), Rel("<", ("y", "z"))])
    assert not fam.decider(two_cycle)
    assert fam.decider(chain)
    assert fam.decider(Instance.of(sig, [Eq("x", "y")]))
    assert not fam.decider(Instance.of(sig, [Eq("x", "y"), Neq("x", "y")]))


def test_family_sizes():
    assert cs.family_size(cs.dense_order_sampling(), 5) == 5
    assert cs.family_size(cs.colored_partition_sampling(2), 3) == 6
    fam = cs.dense_order_sampling()
    assert cs.family_size(fam, 0) == cs.family_size(fam, 1)


def test_colored_partition_layout():
    fam = cs.colored_partition_sampling(2)
    (s,) = fam.generate(1)
    assert s.domain_size == 2
    assert s.relations["P1"] == {(0,)}
    assert s.relations["P2"] == {(1,)}
    (m1,) = cs.colored_partition_sampling(1).generate(3)
    assert m1.relations["P1"] == {(0,), (1,), (2,)}


def test_colored_partition_two_distinct_same_part():
    fam = cs.colored_partition_sampling(2)
    inst = Instance.of(
        fam.signature,
        [Rel("P1", ("x",)), Rel("P1", ("y",)), Neq("x", "y")],
    )
    assert cs.solve_via_sampling(fam, inst).satisfiable
    assert fam.decider(inst)


def test_colored_partition_rejects_bad_m():
    with pytest.raises(cs.SamplingError):
        cs.colored_partition_sampling(0)


def test_successor_shape_and_decider():
    fam = cs.successor_sampling()
    (s,) = fam.generate(1)
    assert s.domain_size == 2 and s.relations["succ"] == {(0, 1)}
    sig = fam.signature
    n = 4
    chain = Instance.of(
        sig,
        [Rel("succ", (f"x{i}", f"x{i+1}")) for i in range(1, n)],
    )
    assert cs.solve_via_sampling(fam, chain).satisfiable
    cycle = Instance.of(sig, [Rel("succ", ("x", "y")), Rel("succ", ("y", "x"))])
    assert not fam.decider(cycle)
    assert not cs.solve_via_sampling(fam, cycle).satisfiable
    # functionality merges: one element cannot have two successors
    merge = Instance.of(
        sig,
        [Rel("succ", ("x", "y")), Rel("succ", ("x", "z")), Neq("y", "z")],
    )
    assert not fam.decider(merge)
    assert not cs.solve_via_sampling(fam, merge).satisfiable


def test_alternating_cycles_smallest_cycle_orientation():
    fam = cs.alternating_cycles_sampling()
    (s,) = fam.generate(2)
    assert s.domain_size == 2
    assert s.relations["E1"] == {(0, 1)}
    assert s.relations["E2"] == {(1, 0)}


def test_alternating_cycles_sizes_follow_copy_counts():
    fam = cs.alternating_cycles_sampling()
    for n in range(1, 21):
        expected = sum(
            -(-n // (2 * k)) * 2 * k for k in range(1, (n + 1) // 2 + 1)
        )
        assert cs.family_size(fam, n) == expected


def test_alternating_path_embeds_into_cycles():
    fam = cs.alternating_cycles_sampling()
    sig = fam.signature
    gamma1 = Instance.of(
        sig, [Rel("E1", ("x1", "x2")), Rel("E2", ("x2", "x3"))]
    )
    res = cs.solve_via_sampling(fam, gamma1)
    assert res.satisfiable
    delta2 = Instance.of(
        sig,
        [
            Rel("E1", ("x1", "x2")),
            Rel("E2", ("x2", "x3")),
            Rel("E1", ("x3", "x4")),
            Rel("E2", ("x4", "x1")),
        ],
    )
    assert cs.solve_via_sampling(fam, delta2).satisfiable


def test_succ2col_generation_and_word_encoding():
    fam = cs.succ2col_sampling()
    (s1,) = fam.generate(1)
    assert s1.domain_size == 2
    assert s1.relations["P0"] == {(0,)} and s1.relations["P1"] == {(1,)}
    (s3,) = fam.generate(3)
    assert s3.domain_size == 8
    sig = fam.signature
    word = Instance.of(
        sig,
        [
            Rel("succ", ("x1", "x2")),
            Rel("succ", ("x2", "x3")),
            Rel("P1", ("x1",)),
            Rel("P0", ("x2",)),
            Rel("P1", ("x3",)),
        ],
    )
    assert cs.solve_via_sampling(fam, word).satisfiable


def test_succ2col_every_window_once():
    from cspsampling.combinatorics import de_bruijn_binary

    for n in (1, 2, 3, 4):
        seq = de_bruijn_binary(n)
        assert len(seq) == 2**n
        windows = {
            tuple(seq[(i + j) % len(seq)] for j in range(n))
            for i in range(len(seq))
        }
        assert len(windows) == 2**n


def test_marked_colors_two_samples_disagree_on_the_mark():
    fam = cs.marked_colors_sampling()
    b1, b2 = fam.generate(2)
    assert b1.relations["mark"] == {(0,)}
    assert b2.relations["mark"] == {(2,)}
    assert b1.relations["red"] == b2.relations["red"] == {(0,), (1,)}
    assert b1.relations["diff"] == {
        (i, j) for i in range(4) for j in range(4) if i != j
    }
    sig = fam.signature
    mark_red = Instance.of(sig, [Rel("mark", ("x",)), Rel("red", ("x",))])
    mark_blue = Instance.of(sig, [Rel("mark", ("y",)), Rel("blue", ("y",))])
    r1 = cs.solve_via_sampling(fam, mark_red)
    r2 = cs.solve_via_sampling(fam, mark_blue)
    assert r1.satisfiable and r1.sample_index == 0
    assert r2.satisfiable and r2.sample_index == 1
    both = Instance.of(sig, [Rel("red", ("x",)), Rel("blue", ("x",))])
    assert not cs.solve_via_sampling(fam, both).satisfiable
    # two marks collapse to one element
    two_marks = Instance.of(
        sig, [Rel("mark", ("x",)), Rel("mark", ("y",)), Neq("x", "y")]
    )
    assert not fam.decider(two_marks)
    assert not cs.solve_via_sampling(fam, two_marks).satisfiable


def test_marked_colors_samples_share_one_diff_listing(monkeypatch):
    for n in range(1, 5):
        b1, b2 = cs.marked_colors_sampling().generate(n)
        assert b1.relations["diff"] is b2.relations["diff"]
        assert b1.relations["diff"] == {
            (i, j) for i in range(2 * n) for j in range(2 * n) if i != j
        }

    def listed(*args):
        raise AssertionError("diff was listed")

    monkeypatch.setattr(cs.families, "ListedRelation", listed)
    with pytest.raises(cs.SamplingError, match="listing budget"):
        cs.marked_colors_sampling().generate(1001)


def test_generate_is_deterministic_and_cached():
    for fam in (
        cs.dense_order_sampling(),
        cs.colored_partition_sampling(3),
        cs.successor_sampling(),
        cs.alternating_cycles_sampling(),
        cs.succ2col_sampling(),
        cs.marked_colors_sampling(),
    ):
        first = fam.generate(3)
        again = fam.generate(3)
        assert first is again  # cached
        fresh = fam.builder(3)
        assert tuple(fresh) == first  # structurally identical on rebuild


def test_expansion_definition_errors_propagate():
    with pytest.raises(cs.DefinitionError):
        cs.dense_order_sampling([("bad", 1, "part(1)(x1)")])
    with pytest.raises(cs.DefinitionError):
        cs.colored_partition_sampling(2, [("bad", 1, "x1 < x1")])
    with pytest.raises(cs.DefinitionError):
        cs.dense_order_sampling([("bad", 1, "x1 < x2")])


def test_one_bad_definition_fails_alike_in_every_expansion():
    base = cs.dense_order_sampling()
    builders = (
        (cs.dense_order_sampling, cs.DefinitionError),
        (lambda defs: cs.colored_partition_sampling(2, defs), cs.DefinitionError),
        (lambda defs: cs.equality_expansion(base, defs), cs.SamplingError),
    )
    cases = {
        "part(3)(x1) & x1 < x2": "definition references unknown symbol 'P3'",
        "x1 = x3": "definition uses x3 but only 2 variables exist",
    }
    for text, message in cases.items():
        for build, error in builders:
            with pytest.raises(error) as err:
                build([("bad", 2, text)])
            assert str(err.value) == f"definition of 'bad': {message}"


def test_expansion_errors_do_not_depend_on_the_hash_seed():
    code = (
        "import cspsampling as cs\n"
        "try:\n"
        "    cs.dense_order_sampling([('bad', 1, 'part(3)(x1) & part(1)(x1)')])\n"
        "except cs.DefinitionError as err:\n"
        "    print(err)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert proc.stdout == "definition of 'bad': definition references unknown symbol 'P3'\n"


def test_partition_and_succ2col_samples_have_an_element_budget():
    with pytest.raises(cs.SamplingError, match="budget"):
        cs.colored_partition_sampling(40_000_000_000)
    with pytest.raises(cs.SamplingError, match="1,000,002 elements.*budget"):
        cs.colored_partition_sampling(2).generate(500_001)
    with pytest.raises(cs.SamplingError, match="1,048,576 elements.*budget"):
        cs.succ2col_sampling().generate(20)


def _alternating_elements(n):
    """Elements of alternating-cycles level n: ceil(n / 2k) copies of the
    2k-cycle for each k up to ceil(n / 2)."""
    return sum(2 * k * -(-n // (2 * k)) for k in range(1, (n + 1) // 2 + 1))


def test_builders_refuse_levels_just_past_their_budgets():
    first_over = next(n for n in itertools.count(1200) if _alternating_elements(n) > 1_000_000)
    assert _alternating_elements(first_over - 1) <= 1_000_000
    cases = [
        # (family, first level over budget, its count, the budget named)
        # a unary relation lists one tuple per element, inside its own budget
        (cs.dense_order_sampling([("u", 1, "x1 = x1")]), 1_000_001, "1,000,001 elements",
         "element budget"),
        (cs.successor_sampling(), 1000, "1,001,000 elements", "element budget"),
        (cs.alternating_cycles_sampling(), first_over,
         f"{_alternating_elements(first_over):,} elements", "element budget"),
        # (2n)^2 - 2n diff tuples: 3,998,000 at n = 1000
        (cs.marked_colors_sampling(), 1001, "4,006,002 diff tuples",
         "listing budget of 4,000,000"),
    ]
    assert 999 * 1000 <= 1_000_000 and 2000**2 - 2000 <= 4_000_000  # one level below is inside
    for family, n, count, budget in cases:
        start = time.perf_counter()
        with pytest.raises(cs.SamplingError, match=budget) as err:
            family.generate(n)
        assert time.perf_counter() - start < 1, family.name
        assert count in str(err.value), family.name
