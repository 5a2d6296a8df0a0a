"""Typed listing of QF-defined relations against candidate evaluation.

Sample builders list a defined relation type by type
(``qf.define_by_type``); ``qf.evaluate_definition`` tests every candidate
tuple of the base and is the oracle here.
"""

import itertools
import random

import conftest as helpers
import cspsampling as cs
from cspsampling import families, qf
from cspsampling.cli import main
from cspsampling.model import Signature, Structure


def chain(n):
    """The base the dense order's definitions are read over: 0 < ... < n-1."""
    return Structure(
        Signature([(qf.ORDER_SYMBOL, 2)]),
        n,
        {qf.ORDER_SYMBOL: {(i, j) for i in range(n) for j in range(i + 1, n)}},
    )


def parts(n, m):
    """The partition base: element i*m + j is the i-th point of part j+1."""
    return Structure(
        Signature([(qf.part_symbol(j + 1), 1) for j in range(m)]),
        n * m,
        {qf.part_symbol(j + 1): {(i * m + j,) for i in range(n)} for j in range(m)},
    )


def corpus(seed, symbols, count=30):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        k = rng.randint(1, 4)
        out.append((f"r{i}", k, helpers.random_qf_definition(rng, k, symbols)))
    return out


def oracle(text, base, k):
    return qf.evaluate_definition(qf.parse_definition(text), base, k)


def test_order_types_match_evaluation_on_a_random_corpus():
    defs = corpus(901, {"<"})
    fam = cs.dense_order_sampling(defs)
    nonempty = 0
    for n in range(8):
        (sample,) = fam.builder(n)
        base = chain(n)
        for rel, k, text in defs:
            assert sample.relations[rel] == oracle(text, base, k), (n, text)
            nonempty += bool(sample.relations[rel])
    assert nonempty > len(defs)  # the corpus is not all empty relations


def test_part_types_match_evaluation_on_a_random_corpus():
    nonempty = 0
    for m in (1, 2, 3):
        defs = corpus(910 + m, {qf.part_symbol(j + 1) for j in range(m)})
        fam = cs.colored_partition_sampling(m, defs)
        for n in range(5):
            (sample,) = fam.builder(n)
            base = parts(n, m)
            for rel, k, text in defs:
                assert sample.relations[rel] == oracle(text, base, k), (m, n, text)
                nonempty += bool(sample.relations[rel])
    assert nonempty > len(defs)


def test_equality_types_match_evaluation_on_a_random_corpus():
    defs = corpus(920, set())
    for base_family in (cs.dense_order_sampling(), cs.colored_partition_sampling(2)):
        fam = cs.equality_expansion(base_family, defs)
        for n in range(1, 6):
            (sample,) = fam.generate(n)
            for rel, k, text in defs:
                assert sample.relations[rel] == oracle(text, sample, k), (n, text)


def test_robot_order_relations_are_exact_up_to_forty():
    fam = helpers.order_family()
    for n in range(41):
        (sample,) = fam.builder(n)
        assert sample.relations["lt"] == set(itertools.combinations(range(n), 2))
        assert sample.relations["min3"] == {
            (min(b, c), b, c) for b, c in itertools.product(range(n), repeat=2)
        }


def test_generation_never_evaluates_candidates(monkeypatch):
    def evaluated(*args):
        raise AssertionError("qf.evaluate_definition was called")

    monkeypatch.setattr(qf, "evaluate_definition", evaluated)
    built = [
        cs.product_sampling(helpers.order_family(), helpers.colors_family()),
        cs.dense_order_sampling(corpus(930, {"<"})),
        cs.colored_partition_sampling(3, corpus(931, {"P1", "P2", "P3"})),
        cs.equality_expansion(cs.dense_order_sampling(), corpus(932, set())),
    ]
    for fam in built:
        for n in range(1, 6):
            fam.generate(n)


def _evaluating(make, base_of, calls):
    """Wrap a family constructor so that its builder evaluates every
    candidate tuple, as the reference for the typed builders."""

    def wrapped(*args, **kwargs):
        fam = make(*args, **kwargs)
        *base_args, expansion = args
        typed = fam.builder

        def builder(n):
            (sample,) = typed(n)
            base = base_of(n, *base_args)
            relations = {
                rel: qf.evaluate_definition(
                    qf.parse_definition(d) if isinstance(d, str) else d, base, k
                )
                for rel, k, d in expansion
            }
            calls.append(fam.name)
            return [Structure(fam.signature, base.domain_size, relations, sample.labels)]

        fam.builder = builder
        return fam

    return wrapped


def test_cli_samples_equal_candidate_evaluation(monkeypatch, capsys):
    def samples(k):
        assert main(["sample", "--theory", "theories/robot_scheduling.theory", "-n", str(k)]) == 0
        return capsys.readouterr().out

    typed = {k: samples(k) for k in range(1, 11)}
    calls = []
    monkeypatch.setattr(
        families, "dense_order_sampling",
        _evaluating(families.dense_order_sampling, chain, calls),
    )
    monkeypatch.setattr(
        families, "colored_partition_sampling",
        _evaluating(families.colored_partition_sampling, parts, calls),
    )
    for k in range(1, 11):
        assert samples(k) == typed[k], k
    assert sorted(set(calls)) == ["order", "robots"]
