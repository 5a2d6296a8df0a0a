import itertools
import random

import pytest

import conftest as helpers
import cspsampling as cs
from cspsampling.model import Signature, SignatureError, Structure


def edge(a, b):
    return Structure(Signature([("E", 2)]), 2, {"E": {(a, b)}})


def test_signature_invariants():
    sig = Signature([("E", 2), ("U", 1)])
    assert sig.arity("E") == 2
    assert "U" in sig and "V" not in sig
    with pytest.raises(SignatureError):
        Signature([("E", 2), ("E", 1)])
    with pytest.raises(SignatureError):
        Signature([("E", 0)])
    with pytest.raises(SignatureError):
        sig.union(Signature([("E", 2)]))


def test_structure_validation():
    sig = Signature([("E", 2)])
    with pytest.raises(ValueError):
        Structure(sig, 2, {"E": {(0, 1, 1)}})
    with pytest.raises(ValueError):
        Structure(sig, 2, {"E": {(0, 5)}})
    with pytest.raises(SignatureError):
        Structure(sig, 2, {"F": {(0, 1)}})
    s = Structure(sig, 3, {})
    assert s.relations["E"] == frozenset()


def test_disjoint_union_empty():
    out = cs.disjoint_union([])
    assert out.domain_size == 0 and out.signature.symbols == ()


def test_disjoint_union_two_loops():
    sig = Signature([("R", 2)])
    loop = Structure(sig, 1, {"R": {(0, 0)}})
    out = cs.disjoint_union([loop, loop])
    assert out.domain_size == 2
    assert out.relations["R"] == {(0, 0), (1, 1)}


def test_disjoint_union_requires_common_signature():
    with pytest.raises(SignatureError):
        cs.disjoint_union([edge(0, 1), Structure(Signature([("F", 2)]), 1, {})])


def test_disjoint_union_marked_colors_parts():
    # combine the two samples at n=1 and compare against brute-force
    # membership over offset tuples: no cross tuples may appear
    family = cs.marked_colors_sampling()
    b1, b2 = family.generate(1)
    out = cs.disjoint_union([b1, b2])
    assert out.domain_size == b1.domain_size + b2.domain_size
    for name, _ in out.signature:
        expected = set()
        for t in b1.relations[name]:
            expected.add(t)
        for t in b2.relations[name]:
            expected.add(tuple(e + b1.domain_size for e in t))
        assert out.relations[name] == expected
        for t in out.relations[name]:
            within_first = all(e < b1.domain_size for e in t)
            within_second = all(e >= b1.domain_size for e in t)
            assert within_first or within_second


def test_disjoint_union_size_additivity():
    sizes = [1, 3, 2]
    sig = Signature([("E", 2)])
    parts = [Structure(sig, k, {}) for k in sizes]
    assert cs.disjoint_union(parts).domain_size == sum(sizes)


def test_is_homomorphism_identity():
    s = edge(0, 1)
    assert cs.is_homomorphism({0: 0, 1: 1}, s, s)


def test_is_homomorphism_edge_to_loopless_point():
    point = Structure(Signature([("E", 2)]), 1, {})
    assert not cs.is_homomorphism({0: 0, 1: 0}, edge(0, 1), point)


def test_is_homomorphism_edge_into_cycle():
    cycle = Structure(
        Signature([("E", 2)]), 3, {"E": {(0, 1), (1, 2), (2, 0)}}
    )
    for start in range(3):
        assert cs.is_homomorphism({0: start, 1: (start + 1) % 3}, edge(0, 1), cycle)
    assert not cs.is_homomorphism({0: 0, 1: 2}, edge(0, 1), cycle)


def test_is_homomorphism_errors():
    s = edge(0, 1)
    with pytest.raises(ValueError):
        cs.is_homomorphism({0: 0}, s, s)
    with pytest.raises(SignatureError):
        cs.is_homomorphism({0: 0, 1: 1}, s, Structure(Signature([("F", 2)]), 2, {}))


def test_image_structure_identity_and_collapse():
    sig = Signature([("E", 2)])
    two = Structure(sig, 2, {})
    collapsed = helpers.image_structure({0: 1, 1: 1}, two, two)
    assert collapsed.domain_size == 1
    cycle = Structure(sig, 3, {"E": {(0, 1), (1, 2), (2, 0)}})
    img = helpers.image_structure({0: 0, 1: 1}, edge(0, 1), cycle)
    assert img.domain_size == 2
    assert img.relations["E"] == {(0, 1)}


def test_image_structure_rejects_non_homomorphism():
    point = Structure(Signature([("E", 2)]), 1, {})
    with pytest.raises(ValueError):
        helpers.image_structure({0: 0, 1: 0}, edge(0, 1), point)


def test_image_admits_surjection_back():
    # the original map, renumbered onto the image, is a homomorphism
    family = cs.marked_colors_sampling()
    b1 = family.generate(2)[0]
    mapping = {0: 0, 1: 0, 2: 2, 3: 2}
    if cs.is_homomorphism(mapping, b1, b1):
        image = helpers.image_structure(mapping, b1, b1)
        renumber = {old: new for new, old in enumerate(sorted(set(mapping.values())))}
        onto = {e: renumber[mapping[e]] for e in range(b1.domain_size)}
        assert cs.is_homomorphism(onto, b1, image)


def _lex_fusion(n):
    """A scheduling model fragment: pairs (rank, robot) ordered lexicographically,
    with the first-of-two relation evaluated over that order."""
    m = 2 * n
    pairs = [(a, b) for a in range(n) for b in range(m)]
    idx = {p: i for i, p in enumerate(pairs)}
    order = {p: k for k, p in enumerate(sorted(pairs))}
    lt = {(idx[p], idx[q]) for p in pairs for q in pairs if order[p] < order[q]}
    min3 = {
        (idx[p], idx[q], idx[r])
        for p in pairs
        for q in pairs
        for r in pairs
        if order[p] == min(order[q], order[r])
    }
    p0 = {(idx[p],) for p in pairs if p[1] % 2 == 0}
    p1 = {(idx[p],) for p in pairs if p[1] % 2 == 1}
    sig = helpers.order_family().signature.union(helpers.colors_family().signature)
    return Structure(sig, len(pairs), {"lt": lt, "min3": min3, "p0": p0, "p1": p1}), idx


def test_image_of_product_sample_keeps_min_polymorphism(robot_theory):
    # map the combined sample into an order+color model fragment and check
    # that a pointwise minimum operation is a polymorphism of the image
    n = 2
    sample = robot_theory.generate(n)[0]
    fusion, idx = _lex_fusion(n)
    m2 = 2 * n
    mapping = {a * m2 + b: idx[(a, b)] for a in range(n) for b in range(m2)}
    assert cs.is_homomorphism(mapping, sample, fusion)
    image = helpers.image_structure(mapping, sample, fusion)
    for k in (1, 2, 3):
        f = cs.min_operation(image.domain_size, k)
        assert cs.check_polymorphism(f, image)
        assert cs.is_totally_symmetric(f)


def test_structures_and_operation_tables_compare_by_value(robot_theory):
    (sample,) = robot_theory.generate(2)
    listed = {name: set(rel) for name, rel in sample.relations.items()}
    same = Structure(sample.signature, sample.domain_size, listed, sample.labels)
    assert type(same.relations["lt"]) is not type(sample.relations["lt"])
    assert sample == same and same == sample
    relabelled = [f"e{i}" for i in range(sample.domain_size)]
    assert sample != Structure(sample.signature, sample.domain_size, listed, relabelled)
    flip = cs.OperationTable(2, 1, {(0,): 1, (1,): 0})
    assert flip == cs.OperationTable(2, 1, {(1,): 0, (0,): 1})
    assert flip != cs.OperationTable(2, 1, {(0,): 0, (1,): 1})
    for value, other in ((sample, listed), (flip, flip.table), (flip, sample)):
        assert (value == other) is False and (other == value) is False
        with pytest.raises(TypeError):
            hash(value)


def test_indexes_are_consistent_with_relations():
    s = Structure(
        Signature([("R", 3)]), 3, {"R": {(0, 1, 2), (1, 1, 2), (2, 2, 2)}}
    )
    assert s.projection_mask("R", 0) == 0b111
    assert s.diagonal_mask("R") == 1 << 2
    # only (0, 1, 2) has three distinct values; (1, 1, 2) is read through an arc
    assert s.relations["R"].tuples_by_value(1) == {1: ((0, 1, 2),)}
    forward, backward = s.shaped_masks("R", (0, 1), (2,))
    assert forward == {1: 1 << 2, 2: 1 << 2}
    assert backward == {2: 1 << 1 | 1 << 2}


def _scan_shape(tuples, first, second):
    """Partner sets of the tuples constant on each group, by a plain scan."""
    forward, backward = {}, {}
    for t in tuples:
        left = {t[p] for p in first}
        right = {t[p] for p in second}
        if len(left) == 1 and len(right) == 1:
            (a,), (b,) = left, right
            forward.setdefault(a, set()).add(b)
            backward.setdefault(b, set()).add(a)
    return forward, backward


def _random_tuple(rng, domain, arity):
    kind = rng.randrange(3)
    if kind == 0:  # constant
        return (rng.randrange(domain),) * arity
    if kind == 1:  # at most two distinct values
        pair = (rng.randrange(domain), rng.randrange(domain))
        return tuple(rng.choice(pair) for _ in range(arity))
    return tuple(rng.randrange(domain) for _ in range(arity))


def _mask_pairs(rng, domain):
    """Seeded (affected, watched) mask pairs over every combination of the
    empty mask, each singleton, the full domain and two random masks."""
    masks = [0, (1 << domain) - 1, rng.getrandbits(domain), rng.getrandbits(domain)]
    masks += [1 << v for v in range(domain)]
    return list(itertools.product(masks, repeat=2))


def test_indexes_match_a_brute_force_scan():
    rng = random.Random(20261018)
    mask_rng = random.Random(20261019)  # apart, so the structures stay as they were
    for _ in range(300):
        domain = rng.randint(1, 5)
        arity = rng.randint(1, 4)
        tuples = {_random_tuple(rng, domain, arity) for _ in range(rng.randint(0, 12))}
        s = Structure(Signature([("R", arity)]), domain, {"R": tuples})

        def bits(mask):
            return {e for e in range(domain) if mask >> e & 1}

        for p in range(arity):
            assert bits(s.projection_mask("R", p)) == {t[p] for t in tuples}
        assert bits(s.diagonal_mask("R")) == {t[0] for t in tuples if len(set(t)) == 1}
        # every ordered two-group partition, so also first groups without 0
        for sides in itertools.product((0, 1), repeat=arity):
            first = tuple(p for p in range(arity) if sides[p] == 0)
            second = tuple(p for p in range(arity) if sides[p] == 1)
            if not first or not second:
                continue
            forward, backward = _scan_shape(tuples, first, second)
            masks = s.shaped_masks("R", first, second)
            assert tuple({v: bits(m) for v, m in d.items()} for d in masks) == (
                forward, backward
            )
            # both arcs of the shape, so the pigeonhole bound and constant
            # tuples (their own partners) are checked against the scan
            for watched, affected, to_affected, to_watched in (
                (first, second, forward, backward),
                (second, first, backward, forward),
            ):
                arc = s.relations["R"].arc(watched, affected)
                for v in range(domain):
                    assert bits(arc.partners(v)) == to_affected.get(v, set())
                for dom_a, dom_w in _mask_pairs(mask_rng, domain):
                    scan = {a for a in bits(dom_a) if to_watched.get(a, set()) & bits(dom_w)}
                    assert bits(arc.revise(dom_a, dom_w)) == scan, (watched, dom_a, dom_w)


def test_shaped_masks_need_a_partition_into_two_groups():
    s = Structure(Signature([("R", 3)]), 2, {"R": {(0, 1, 1), (1, 1, 1)}})
    for first, second in [
        ((0, 1, 2), ()),
        ((), (0, 1, 2)),
        ((0,), (1,)),
        ((0, 1), (1, 2)),
        ((0,), (1, 3)),
        ((0, 1), (2, 2)),
    ]:
        with pytest.raises(ValueError):
            s.shaped_masks("R", first, second)


def test_structure_equality_and_labels():
    sig = Signature([("E", 2)])
    a = Structure(sig, 2, {"E": {(0, 1)}}, labels=["u", "v"])
    b = Structure(sig, 2, {"E": {(0, 1)}}, labels=["u", "v"])
    c = Structure(sig, 2, {"E": {(0, 1)}})
    assert a == b and a != c
    assert a.label(1) == "v" and c.label(1) == "1"
