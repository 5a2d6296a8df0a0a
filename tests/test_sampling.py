
import itertools
import random

import pytest

import cspsampling as cs
from cspsampling.formulas import Eq, Instance, Neq, Rel
from cspsampling.model import ListedRelation, RuleRelation, Signature, Structure
from cspsampling.sampling import explicit_sampling, verify_equality_matching


def test_product_size_law_small():
    prod = cs.product_sampling(
        cs.dense_order_sampling(), cs.colored_partition_sampling(2)
    )
    for n in range(1, 9):
        assert cs.family_size(prod, n) == n * 2 * n


def test_product_size_law_other_factor_pairs():
    import conftest as helpers

    pairs = [
        (cs.dense_order_sampling(), cs.colored_partition_sampling(3)),
        (helpers.order_family(), helpers.colors_family()),
        (
            cs.colored_partition_sampling(
                2, [("a", 1, "part(1)(x1)"), ("b", 1, "part(2)(x1)")]
            ),
            cs.colored_partition_sampling(
                3, [("c", 1, "part(1)(x1)"), ("d", 1, "part(2)(x1)")]
            ),
        ),
    ]
    for left, right in pairs:
        prod = cs.product_sampling(left, right)
        for n in range(1, 9):
            assert cs.family_size(prod, n) == cs.family_size(
                left, n
            ) * cs.family_size(right, n)


def test_product_pair_identification_condition():
    prod = cs.product_sampling(
        cs.dense_order_sampling(), cs.colored_partition_sampling(2)
    )
    (m,) = prod.generate(2)
    b2 = 4  # second factor has 2*n elements at n=2
    lt = m.relations["<"]
    # first coordinates differ, second coordinates equal: excluded
    assert (0 * b2 + 1, 1 * b2 + 1) not in lt
    # first coordinates differ and second differ: included when ordered
    assert (0 * b2 + 1, 1 * b2 + 2) in lt
    # unary relation of the second factor ignores the first coordinate
    p1 = m.relations["P1"]
    for a in range(2):
        for b in range(b2):
            assert ((a * b2 + b,) in p1) == (b % 2 == 0)


def test_product_requires_flags_and_disjoint_signatures():
    dense = cs.dense_order_sampling()
    with pytest.raises(cs.SamplingError):
        cs.product_sampling(dense, cs.successor_sampling())  # pp-algebraicity
    not_matching = explicit_sampling(
        Signature([("U", 1)]), [Structure(Signature([("U", 1)]), 1, {})],
        equality_matching=False, no_pp_algebraicity=True,
    )
    with pytest.raises(cs.SamplingError):
        cs.product_sampling(dense, not_matching)
    with pytest.raises(cs.SignatureError):
        cs.product_sampling(dense, cs.dense_order_sampling())


def test_product_samples_project_homomorphically(robot_theory):
    # dropping the second coordinate is a homomorphism on the first factor's
    # relations: tuples satisfying the pattern condition project into it
    import conftest as helpers

    for n in (1, 2, 3):
        (m,) = robot_theory.generate(n)
        (b1,) = helpers.order_family().generate(n)
        b2_size = 2 * n
        for sym in ("lt", "min3"):
            for t in m.relations[sym]:
                assert tuple(e // b2_size for e in t) in b1.relations[sym]
        (b2,) = helpers.colors_family().generate(n)
        for sym in ("p0", "p1"):
            for t in m.relations[sym]:
                assert tuple(e % b2_size for e in t) in b2.relations[sym]


def test_equality_expansion_adds_defined_relations():
    dense = cs.dense_order_sampling()
    fam = cs.equality_expansion(dense, [("neq", 2, "!(x1 = x2)")])
    (s,) = fam.generate(3)
    assert s.relations["neq"] == {
        (a, b) for a in range(3) for b in range(3) if a != b
    }
    full = cs.equality_expansion(dense, [("pairs", 2, "x1 = x1")])
    assert len(full.generate(2)[0].relations["pairs"]) == 4
    distinct3 = cs.equality_expansion(
        dense, [("d3", 3, "!(x1 = x2) & !(x1 = x3) & !(x2 = x3)")]
    )
    assert distinct3.generate(2)[0].relations["d3"] == frozenset()


def test_equality_expansion_rejects_relation_symbols():
    with pytest.raises(cs.SamplingError):
        cs.equality_expansion(cs.dense_order_sampling(), [("bad", 2, "x1 < x2")])
    plain = explicit_sampling(
        Signature([("U", 1)]), [Structure(Signature([("U", 1)]), 1, {})]
    )
    with pytest.raises(cs.SamplingError):
        cs.equality_expansion(plain, [("ok", 2, "x1 = x2")])


def test_equality_expansion_decider_handles_defined_atoms():
    fam = cs.equality_expansion(cs.dense_order_sampling(), [("neq", 2, "!(x1 = x2)")])
    sig = fam.signature
    sat = Instance.of(sig, [Rel("<", ("x", "y")), Rel("neq", ("x", "y"))])
    unsat = Instance.of(sig, [Rel("neq", ("x", "y")), Eq("x", "y")])
    assert fam.decider(sat)
    assert not fam.decider(unsat)
    assert cs.solve_via_sampling(fam, sat).satisfiable
    assert not cs.solve_via_sampling(fam, unsat).satisfiable


def test_explicit_sampling_variants():
    sig = Signature([("U", 1)])
    point = Structure(sig, 1, {"U": {(0,)}})
    constant = explicit_sampling(sig, [point])
    assert constant.generate(5) == (point,)
    wrong = explicit_sampling(sig, [Structure(Signature([("V", 1)]), 1, {})])
    with pytest.raises(cs.SamplingError):
        wrong.generate(1)


def test_empty_family_rejects_everything():
    sig = Signature([("U", 1)])
    empty = explicit_sampling(sig, lambda n: [])
    inst = Instance.of(sig, [Rel("U", ("x",))])
    assert not cs.solve_via_sampling(empty, inst).satisfiable
    assert not cs.solve_via_sampling(empty, Instance.of(sig, [])).satisfiable


def test_sampling_from_decider_unary_always_satisfiable():
    sig = Signature([("U", 1)])
    fam = cs.sampling_from_decider(sig, lambda inst: True, max_n=2)
    structures = fam.generate(1)
    assert len(structures) == 2
    sizes = sorted(len(s.relations["U"]) for s in structures)
    assert sizes == [0, 1]


def test_sampling_from_decider_nothing_satisfiable():
    sig = Signature([("U", 1)])
    fam = cs.sampling_from_decider(sig, lambda inst: False, max_n=2)
    assert fam.generate(2) == ()


def test_sampling_from_decider_cost_guard():
    sig = Signature([("U", 1)])
    fam = cs.sampling_from_decider(sig, lambda inst: True, max_n=1)
    with pytest.raises(cs.SamplingError):
        fam.generate(2)


def test_verify_equality_matching_success_and_counterexample():
    dense = cs.dense_order_sampling()
    report = verify_equality_matching(dense, 3, 3, 2)
    assert report.ok and report.checked > 1000

    truncated = explicit_sampling(
        dense.signature,
        lambda n: dense.generate(1),
        equality_matching=True,
        decider=dense.decider,
        name="truncated",
    )
    broken = verify_equality_matching(truncated, 3, 2, 2)
    assert not broken.ok
    cex = broken.counterexample
    assert cex.n == 2
    assert cex.decider_verdict and not cex.sampling_verdict


def test_verify_equality_matching_vacuous_and_missing_decider():
    dense = cs.dense_order_sampling()
    assert verify_equality_matching(dense, 1, 0, 2).ok
    nodecider = explicit_sampling(dense.signature, lambda n: dense.generate(n))
    with pytest.raises(cs.SamplingError):
        verify_equality_matching(nodecider, 1, 1, 1)


def test_product_decider_splits_by_identification_pattern(robot_theory):
    sig = robot_theory.signature
    # two parts forced onto one robot but apart in time: satisfiable
    inst = Instance.of(
        sig,
        [Rel("p0", ("x",)), Rel("p0", ("y",)), Rel("lt", ("x", "y"))],
    )
    assert robot_theory.decider(inst)
    # same part on both robots: unsatisfiable
    clash = Instance.of(sig, [Rel("p0", ("x",)), Rel("p1", ("x",))])
    assert not robot_theory.decider(clash)
    # minimum of two distinct parts must be one of them
    nonconvex = Instance.of(
        sig,
        [Rel("min3", ("x", "y", "z")), Neq("x", "y"), Neq("x", "z")],
    )
    assert not robot_theory.decider(nonconvex)


def test_product_budget_is_checked_before_materializing(monkeypatch):
    import conftest as helpers
    import cspsampling.sampling as sampling

    def materialized(*args):
        raise AssertionError("a product sample was built")

    def robot():
        return cs.product_sampling(helpers.order_family(), helpers.colors_family())

    # level 8: |D| = 8 * 16. lt holds 2 projections, the diagonal and, per
    # direction, two masks for each of 7 values with partners: 31 masks.
    # min3 holds 3 + 1, and 28 for each of its shapes (a,a,b) and (a,b,a)
    # with a < b; (a,b,b) has no tuple: 60. p0 and p1 hold 2 each.
    held = (31 + 60 + 2 + 2) * 8 * 16
    (b1,), (b2,) = helpers.order_family().generate(8), helpers.colors_family().generate(8)
    assert sampling._index_bits(b1, b2) == held
    monkeypatch.setattr(sampling, "_MAX_INDEX_BITS", held)
    assert robot().generate(8)  # the count is exact: a budget of it suffices
    monkeypatch.setattr(sampling, "_MAX_INDEX_BITS", held - 1)
    monkeypatch.setattr(sampling, "_product_structure", materialized)
    with pytest.raises(cs.SamplingError, match=f"{held:,} mask bits.*index budget"):
        robot().generate(8)
    monkeypatch.undo()
    (sample,) = robot().generate(48)  # refused by the old count of 30.9M tuples
    assert sample.domain_size == 48 * 96


def test_product_samples_have_an_element_budget():
    sig1, sig2 = Signature([("U", 1)]), Signature([("V", 1)])

    def points(sig, size):
        return explicit_sampling(
            sig, [Structure(sig, size, {})],
            equality_matching=True, no_pp_algebraicity=True,
        )

    assert cs.product_sampling(points(sig1, 1000), points(sig2, 1000)).generate(1)
    with pytest.raises(cs.SamplingError, match="1,001,000 elements.*budget"):
        cs.product_sampling(points(sig1, 1001), points(sig2, 1000)).generate(1)


# --- the implicit product against its materialized reference ----------------


def _implicit(b1, b2):
    import cspsampling.sampling as sampling

    signature = b1.signature.union(b2.signature)
    return sampling._product_structure(b1, b2, signature, set(b1.signature.names()))


def _support_mask_cases(rng, b1, b2, owner, arity):
    """Atoms of one relation and masks for their variables, drawn so that
    every branch of the product's ``support_masks`` runs.

    The atoms have 1 to min(arity, 4) distinct variables, some repeated.
    Each variable's mask is absent or empty, a singleton, two values inside
    one own row, sparse, dense, the whole domain, a few columns (the
    elements whose other coordinate is one of one or two values), or a few
    whole rows (the elements whose own coordinate is one of one to three
    values). Column masks leave the blocks of a factor tuple one or two
    other coordinates, which sends three-block tuples through the exact
    Hall check; row masks start the scan at a position with a few live own
    values, selective but not a singleton.
    """
    size1, size2 = b1.domain_size, b2.domain_size
    size = size1 * size2
    own_size, other_size = (size1, size2) if owner is b1 else (size2, size1)

    def element(own, other):
        return own * size2 + other if owner is b1 else other * size2 + own

    def mask():
        kind = rng.randrange(9)
        if kind == 0:
            return 0
        if kind == 1:
            return 1 << rng.randrange(size)
        if kind == 2:
            own = rng.randrange(own_size)
            return 1 << element(own, rng.randrange(other_size)) | 1 << element(
                own, rng.randrange(other_size)
            )
        if kind == 3:
            return rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
        if kind == 4:
            return rng.getrandbits(size) | rng.getrandbits(size)
        if kind == 5:
            return (1 << size) - 1
        if kind == 6:
            rows = rng.sample(range(own_size), min(own_size, rng.randint(1, 3)))
            return sum(1 << element(o, c) for o in rows for c in range(other_size))
        columns = rng.sample(range(other_size), min(other_size, rng.randint(1, 2)))
        return sum(1 << element(o, c) for o in range(own_size) for c in columns)

    pools = ["xyzw"[:k] for k in range(1, min(arity, 4) + 1)]
    for pool in pools + [rng.choice(pools) for _ in range(3)]:
        args = list(pool) + [rng.choice(pool) for _ in range(arity - len(pool))]
        rng.shuffle(args)
        for _ in range(8):
            yield tuple(args), {x: mask() for x in pool if rng.random() < 0.8}


def _assert_matches_reference(b1, b2, rng):
    import conftest as helpers

    prod, ref = _implicit(b1, b2), helpers.materialized_product(b1, b2)
    assert not any(isinstance(r, ListedRelation) for r in prod.relations.values())
    size = ref.domain_size
    assert prod.domain_size == size and prod.labels == ref.labels
    for name, arity in ref.signature:
        rel, expected = prod.relations[name], ref.relations[name]
        assert len(rel) == len(expected)
        assert set(rel) == expected
        probes = [tuple(rng.randrange(-1, size + 2) for _ in range(arity)) for _ in range(200)]
        for t in rng.sample(sorted(expected), min(len(expected), 100)):
            i = rng.randrange(arity)
            probes += [t, t[:i] + (rng.randrange(size),) + t[i + 1 :]]
        if size**arity <= 4096:
            probes += itertools.product(range(size), repeat=arity)
        for t in probes:
            assert (t in rel) == (t in expected), (name, t)
        for t in [(), (0,) * (arity + 1), (size,) * arity, (-1,) * arity]:
            assert t not in rel
        for p in range(arity):
            assert prod.projection_mask(name, p) == ref.projection_mask(name, p)
        assert prod.diagonal_mask(name) == ref.diagonal_mask(name)
        for sides in itertools.product((0, 1), repeat=arity):
            first = tuple(p for p in range(arity) if sides[p] == 0)
            second = tuple(p for p in range(arity) if sides[p] == 1)
            if first and second:
                assert prod.shaped_masks(name, first, second) == ref.shaped_masks(
                    name, first, second
                ), (name, first, second)
                _assert_arcs_match(prod, ref, name, first, second, rng)
        owner = b1 if name in b1.signature else b2
        for args, masks in _support_mask_cases(rng, b1, b2, owner, arity):
            want = helpers.scan_support_masks(expected, args, masks)
            assert prod.support_masks(name, args, masks) == want, (name, args, masks)
            assert ref.support_masks(name, args, masks) == want, (name, args, masks)


def _mask_pairs(rng, rel, supports):
    """Seeded (affected, watched) mask pairs over a product relation's
    domain: empty, single values, two values, sparse, even and dense random
    masks, and the full domain. Then watched masks at the edge of the
    arc's pigeonhole bound, where a row o needs |D| - |W| >= |P(o)|·(k - 1)
    to change: the full domain less j random values, for every j from 1 to
    one past the largest such need; the full domain less the partners of
    one affected value other than itself, which lack exactly its row's need;
    lifted own masks, with whole rows removed as projection seeds are; and
    masks with whole columns removed, as the seeds of the other factor's
    unary relations are."""
    size = rel.domain_size
    full = (1 << size) - 1

    def mask():
        kind = rng.randrange(6)
        if kind == 0:
            return 1 << rng.randrange(size)
        if kind == 1:
            return 1 << rng.randrange(size) | 1 << rng.randrange(size)
        if kind == 2:
            return rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
        if kind == 3:
            return rng.getrandbits(size)
        if kind == 4:
            return rng.getrandbits(size) | rng.getrandbits(size)
        return full

    pairs = [(0, full), (full, 0), (full, full)] + [(mask(), mask()) for _ in range(30)]
    others = {a: m & ~(1 << a) for a, m in supports.items()}
    largest = max((m.bit_count() for m in others.values()), default=0)
    watched = [
        full & ~sum(1 << v for v in rng.sample(range(size), j))
        for j in range(1, min(largest + 1, size) + 1)
    ]
    watched += [full & ~others[a] for a in rng.sample(sorted(others), min(len(others), 8))]
    for _ in range(4):
        own = sum(1 << o for o in range(rel.own_size) if rng.random() < 0.7)
        columns = [y for y in range(rel.other_size) if rng.random() < 0.4]
        watched += [
            rel.lift(own),
            full & ~sum(rel.column << y * rel.other_scale for y in columns),
        ]
    return pairs + [(rng.choice((full, mask())), w) for w in watched]


def _assert_arcs_match(prod, ref, name, watched, affected, rng):
    """The product's arc query against the pigeonhole arc of the
    materialized reference and against a scan of its partner masks."""
    rel = prod.relations[name]
    arc, ref_arc = rel.arc(watched, affected), ref.relations[name].arc(watched, affected)
    _, supports = ref.shaped_masks(name, watched, affected)
    for value in range(ref.domain_size):
        assert arc.partners(value) == ref_arc.partners(value), (name, watched, value)
    for dom_a, dom_w in _mask_pairs(rng, rel, supports):
        scan = sum(
            1 << a for a in range(ref.domain_size)
            if dom_a >> a & 1 and supports.get(a, 0) & dom_w
        )
        assert arc.revise(dom_a, dom_w) == ref_arc.revise(dom_a, dom_w) == scan, (
            name, watched, dom_a, dom_w
        )


def _random_factor(rng, names, size):
    relations = {}
    signature = Signature([(name, arity) for name, arity in names])
    for name, arity in names:
        relations[name] = {
            tuple(rng.randrange(size) for _ in range(arity))
            for _ in range(rng.randint(0, 8))
        }
    return Structure(signature, size, relations)


def test_implicit_product_matches_the_materialized_reference():
    import conftest as helpers

    rng = random.Random(20261018)
    order, colors = helpers.order_family(), helpers.colors_family()
    for n in range(1, 7):
        (b1,), (b2,) = order.generate(n), colors.generate(n)
        _assert_matches_reference(b1, b2, rng)
    for n in (2, 3):  # the wide relation in the second factor: the comb path
        (b1,), (b2,) = colors.generate(n), order.generate(n)
        _assert_matches_reference(b1, b2, rng)
    # two colors: each row's lifted partners lie in two columns, so a row
    # can lose support once the watched mask misses as many values as it
    # has factor partners, the tightest case of the arcs' pigeonhole bound
    (b1,), (b2,) = order.generate(5), colors.generate(1)
    _assert_matches_reference(b1, b2, rng)
    sig_t = Signature([("T", 3), ("E", 2)])
    sig_s = Signature([("S", 3), ("U", 1)])
    three = Structure(
        sig_t, 4, {"T": {(0, 1, 2), (1, 2, 3), (0, 0, 1), (2, 2, 2), (3, 1, 3)},
                   "E": {(0, 1), (2, 2)}},
    )
    for size in (1, 2, 3, 4):  # (0, 1, 2) has more distinct values than 1 or 2
        other = Structure(
            sig_s, size, {"S": {(0, 0, 0), (0, size - 1, size // 2)}, "U": {(size - 1,)}}
        )
        _assert_matches_reference(three, other, rng)
        _assert_matches_reference(other, three, rng)
    for _ in range(40):
        b1 = _random_factor(rng, [("R", rng.randint(1, 4)), ("Q", 2)], rng.randint(1, 4))
        b2 = _random_factor(rng, [("W", rng.randint(1, 4))], rng.randint(1, 4))
        _assert_matches_reference(b1, b2, rng)


def _mixed_tuples(rng, size, arity):
    """Random tuples with 1, 2 or more distinct values, in random order."""
    tuples = set()
    for _ in range(rng.randint(1, 12)):
        values = rng.sample(range(size), min(size, arity, rng.choice((1, 2, 2, 3, 4))))
        t = values + [rng.choice(values) for _ in range(arity - len(values))]
        rng.shuffle(t)
        tuples.add(tuple(t))
    return tuples


def _atoms_and_masks(rng, arity, size):
    """Atoms of 1 to min(arity, 4) distinct variables, some repeated, with
    masks that are absent, empty, a singleton, random or the whole domain."""
    for k in range(1, min(arity, 4) + 1):
        pool = "xyzw"[:k]
        for _ in range(6):
            args = list(pool) + [rng.choice(pool) for _ in range(arity - k)]
            rng.shuffle(args)
            masks = {}
            for x in pool:
                kinds = (None, 0, 1 << rng.randrange(size), rng.getrandbits(size), (1 << size) - 1)
                if (mask := rng.choice(kinds)) is not None:
                    masks[x] = mask
            yield tuple(args), masks


def test_support_masks_match_a_brute_force_scan():
    import conftest as helpers

    rng = random.Random(20261021)
    widths, other_sizes, queries = set(), set(), 0
    for _ in range(40):
        size, arity = rng.randint(2, 5), rng.randint(3, 4)
        own = Structure(Signature([("R", arity)]), size, {"R": _mixed_tuples(rng, size, arity)})
        widths |= {len(set(t)) for t in own.relations["R"]}
        other_size = rng.randint(1, 3)
        other_sizes.add(other_size)
        other = Structure(Signature([("U", 1)]), other_size, {"U": {(0,)}})
        targets = [(own, own.relations["R"])]
        for b1, b2 in ((own, other), (other, own)):
            listed = helpers.materialized_product(b1, b2).relations["R"]
            targets.append((_implicit(b1, b2), listed))
        for target, listed in targets:
            for args, masks in _atoms_and_masks(rng, arity, target.domain_size):
                want = helpers.scan_support_masks(listed, args, masks)
                assert target.support_masks("R", args, masks) == want, (listed, args, masks)
                queries += 1
    assert widths == {1, 2, 3, 4} and other_sizes == {1, 2, 3} and queries > 2000


def test_a_cold_solve_makes_each_arc_once(monkeypatch):
    import conftest as helpers
    import cspsampling.model as model

    made = []  # (relation, watched, affected) of each arc built
    partners = model.arc_partners

    def counted(scan, arity, watched, affected):
        made.append((id(scan), watched, affected))
        return partners(scan, arity, watched, affected)

    monkeypatch.setattr(model, "arc_partners", counted)
    robot = cs.product_sampling(helpers.order_family(), helpers.colors_family())
    (sample,) = robot.generate(4)
    # the wide atom is revised by the arcs of the two-variable atoms' shapes
    atoms = [("a", "b", "c"), ("a", "a", "b"), ("c", "a", "c"), ("b", "c", "c")]
    inst = Instance.of(robot.signature, [Rel("min3", args) for args in atoms], declared="abc")
    for _ in range(2):
        cs.hom_search(inst, sample)
    rel = sample.relations["min3"]
    scan = id(rel.scan)
    groups = [((0, 1), (2,)), ((0, 2), (1,)), ((0,), (1, 2))]
    assert sorted(made) == sorted((scan, *g) for pair in groups for g in (pair, pair[::-1]))
    for shape, pair in zip([(0, 0, 2), (0, 1, 0), (0, 1, 1)], groups):
        plan_arcs = sample._indexes["plan", "min3", shape][2]
        assert plan_arcs[0] is rel.arc(*pair) and plan_arcs[1] is rel.arc(*pair[::-1])


def test_support_scans_read_only_live_buckets(monkeypatch):
    import conftest as helpers
    import cspsampling.sampling as sampling

    buckets, representatives = RuleRelation.tuples_by_value, sampling._representatives

    def unread(self, position):
        raise AssertionError(f"a bucket at position {position} was read")

    # min3 tuples have at most two distinct values, so the diagonal and the
    # arcs answer every query and no bucket is read, on the product or on
    # its listed copy
    monkeypatch.setattr(RuleRelation, "tuples_by_value", unread)
    rng = random.Random(11)
    order, colors = helpers.order_family(), helpers.colors_family()
    args = ("y", "x", "z")  # x at position 1
    for n in (3, 5):
        (b1,), (b2,) = order.generate(n), colors.generate(n)
        prod, ref = _implicit(b1, b2), helpers.materialized_product(b1, b2)
        full, other = (1 << prod.domain_size) - 1, b2.domain_size
        for target in (prod, ref):
            assert target.support_masks("min3", args, {"x": 0, "y": full}) == dict.fromkeys(
                "yxz", 0
            )
            for o in range(n):
                masks = {"x": (rng.getrandbits(other) | 1) << o * other, "y": full}
                want = helpers.scan_support_masks(ref.relations["min3"], args, masks)
                assert target.support_masks("min3", args, masks) == want
    for case_args, masks in _support_mask_cases(rng, b1, b2, b1, 3):
        want = helpers.scan_support_masks(ref.relations["min3"], case_args, masks)
        assert prod.support_masks("min3", case_args, masks) == want
        assert ref.support_masks("min3", case_args, masks) == want

    # T's (0, 1, 2) and (1, 2, 3) have three blocks: a scan reads their buckets
    reads = []  # (position, value) of each bucket a scan reads

    class Recorded(dict):
        def __init__(self, grouped, position):
            super().__init__(grouped)
            self.position = position

        def get(self, value, default=None):
            reads.append((self.position, value))
            return super().get(value, default)

    blocks = []

    def checked(allowed):
        assert all(allowed.values()), allowed
        blocks.append(len(allowed))
        return representatives(allowed)

    monkeypatch.setattr(
        RuleRelation, "tuples_by_value",
        lambda self, position: Recorded(buckets(self, position), position),
    )
    monkeypatch.setattr(sampling, "_representatives", checked)
    three = Structure(Signature([("T", 3)]), 4, {"T": {(0, 1, 2), (1, 2, 3), (3, 1, 3)}})
    unary = Structure(Signature([("U", 1)]), 3)
    prod, ref = _implicit(three, unary), helpers.materialized_product(three, unary)
    full, other = (1 << prod.domain_size) - 1, unary.domain_size
    for target in (prod, ref):
        reads.clear()
        assert target.support_masks("T", args, {"x": 0, "y": full}) == dict.fromkeys("yxz", 0)
        assert reads == []
    for o in range(three.domain_size):  # a mask inside own row o reads that row's bucket alone
        masks = {"x": (rng.getrandbits(other) | 1) << o * other, "y": full}
        want = helpers.scan_support_masks(ref.relations["T"], args, masks)
        reads.clear()
        assert prod.support_masks("T", args, masks) == want
        assert reads == [(1, o)]
    for case_args, masks in _support_mask_cases(rng, three, unary, three, 3):
        want = helpers.scan_support_masks(ref.relations["T"], case_args, masks)
        assert prod.support_masks("T", case_args, masks) == want
    assert set(blocks) == {3}


def test_product_samples_materialize_on_demand_exactly():
    import conftest as helpers
    from cspsampling import io

    rng = random.Random(7)
    order, colors = helpers.order_family(), helpers.colors_family()
    for n in range(1, 5):
        (b1,), (b2,) = order.generate(n), colors.generate(n)
        prod, ref = _implicit(b1, b2), helpers.materialized_product(b1, b2)
        assert io.print_structure(prod, name="s") == io.print_structure(ref, name="s")
        assert prod == ref and ref == prod
        identity = {e: e for e in range(ref.domain_size)}
        assert cs.is_homomorphism(identity, prod, ref)
        assert cs.is_homomorphism(identity, ref, prod)
        for _ in range(60):
            inst = helpers.random_instance(prod.signature, rng, max_vars=4, neq_ok=False)
            contracted, _ = cs.contract_equalities(inst)
            if contracted.has_bot():
                continue
            source = cs.canonical_database(contracted)
            found = cs.hom_search(contracted, ref)
            mappings = [
                {e: rng.randrange(ref.domain_size) for e in range(source.domain_size)}
            ]
            if found.satisfiable:
                variables = contracted.variables
                mappings.append({i: found.assignment[v] for i, v in enumerate(variables)})
            for mapping in mappings:
                holds = cs.is_homomorphism(mapping, source, ref)
                assert cs.is_homomorphism(mapping, source, prod) == holds
                if holds:
                    image = helpers.image_structure(mapping, source, prod)
                    assert image == helpers.image_structure(mapping, source, ref)
            if found.satisfiable:
                assert cs.check_witness(contracted, prod, found.assignment)


def _refuse(monkeypatch, method):
    """Make a product relation's ``method`` raise while the patch holds."""
    import cspsampling.sampling as sampling

    def refused(self, *args):
        raise AssertionError(f"a product relation was asked {method}")

    monkeypatch.setattr(sampling._ProductRelation, method, refused)


def test_building_and_solving_a_product_level_builds_no_tuple(monkeypatch):
    """No product tuple is listed, and the solvers test no membership:
    ``__contains__`` raises while they run and is restored for
    ``check_witness``, the independent check."""
    import conftest as helpers

    _refuse(monkeypatch, "__iter__")
    robot = cs.product_sampling(helpers.order_family(), helpers.colors_family())
    (sample,) = robot.generate(8)
    assert not any(isinstance(r, ListedRelation) for r in sample.relations.values())
    assert sum(len(r) for r in sample.relations.values()) > 0
    rng = random.Random(3)
    wide = 0
    for _ in range(40):
        inst = helpers.random_instance(robot.signature, rng, max_vars=7, max_atoms=8)
        contracted, _ = cs.contract_equalities(inst)
        with monkeypatch.context() as solving:
            _refuse(solving, "__contains__")
            res = cs.solve_via_sampling(robot, inst)
            if not any(isinstance(a, Neq) for a in contracted.atoms):
                cs.solve_ac_over_sampling(robot, inst)
                if len(contracted.variables) <= 6:  # the pair closure is slow past that
                    cs.solve_nu_over_sampling(robot, inst)
        if res.satisfiable:
            target = robot.generate(len(contracted.variables))[res.sample_index]
            assert cs.check_witness(inst, target, res.assignment)
            wide += any(len(set(a.args)) > 2 for a in contracted.atoms if isinstance(a, Rel))
    assert wide > 0  # some witness fully assigned a wide atom


_EQUALITY_DEFS = [("same", 2, "x1 = x2"), ("meet", 3, "x1 = x2 | x1 = x3")]


def test_an_expanded_product_level_lists_no_product_tuple(monkeypatch):
    import conftest as helpers

    _refuse(monkeypatch, "__iter__")
    robot = cs.product_sampling(helpers.order_family(), helpers.colors_family())
    expanded = cs.equality_expansion(robot, _EQUALITY_DEFS)
    (sample,) = expanded.generate(8)
    assert not isinstance(sample.relations["min3"], ListedRelation)
    assert len(sample.relations["same"]) == sample.domain_size
    rng = random.Random(11)
    verdicts = set()
    for _ in range(30):
        inst = helpers.random_instance(expanded.signature, rng, max_vars=8, max_atoms=10)
        contracted, _ = cs.contract_equalities(inst)
        res = cs.solve_via_sampling(expanded, inst)
        verdicts.add(res.satisfiable)
        if res.satisfiable:
            target = expanded.generate(len(contracted.variables))[res.sample_index]
            assert cs.check_witness(inst, target, res.assignment)
        if not any(isinstance(a, Neq) for a in contracted.atoms):
            cs.solve_ac_over_sampling(expanded, inst)
            if len(contracted.variables) <= 5:  # the pair closure is slow past that
                cs.solve_nu_over_sampling(expanded, inst)
    assert verdicts == {True, False}


def test_expanded_products_agree_with_listed_copies_and_deciders(robot_theory):
    import conftest as helpers

    expanded = cs.equality_expansion(robot_theory, _EQUALITY_DEFS)
    rng = random.Random(17)
    for n in range(1, 7):
        (sample,) = expanded.generate(n)
        listed = Structure(
            sample.signature, sample.domain_size,
            {name: frozenset(r) for name, r in sample.relations.items()},
        )
        for _ in range(15):
            inst = helpers.random_instance(expanded.signature, rng, max_vars=n, max_atoms=8)
            assert cs.solve_via_sampling(expanded, inst).satisfiable == expanded.decider(inst)
            contracted, _ = cs.contract_equalities(inst)
            if contracted.has_bot():
                continue
            assert cs.hom_search(contracted, sample) == cs.hom_search(contracted, listed)
            if any(isinstance(a, Neq) for a in contracted.atoms):
                continue
            assert cs.arc_consistency(contracted, sample) == cs.arc_consistency(contracted, listed)
            if len(contracted.variables) <= 4:  # the listed pair closure is slow past that
                assert cs.establish_23_consistency(
                    contracted, sample
                ) == cs.establish_23_consistency(contracted, listed)


def test_a_product_of_an_expanded_product_agrees_with_its_decider(robot_theory):
    import conftest as helpers

    nested = cs.product_sampling(
        cs.equality_expansion(robot_theory, _EQUALITY_DEFS), cs.colored_partition_sampling(3)
    )
    rng = random.Random(19)
    verdicts = []
    for _ in range(40):
        inst = helpers.random_instance(nested.signature, rng, max_vars=4, max_atoms=7)
        verdicts.append(nested.decider(inst))
        assert cs.solve_via_sampling(nested, inst).satisfiable == verdicts[-1], inst.atoms
    assert 5 < sum(verdicts) < len(verdicts) - 5


def test_structures_keep_rule_relations_of_their_own_shape(robot_theory):
    (sample,) = robot_theory.generate(3)
    lt, size = sample.relations["lt"], sample.domain_size
    pair = Signature([("r", 2)])
    assert Structure(pair, size, {"r": lt}).relations["r"] is lt
    for sig, domain_size in ((Signature([("r", 3)]), size), (pair, size + 1)):
        with pytest.raises(ValueError, match="rule relation"):
            Structure(sig, domain_size, {"r": lt})
