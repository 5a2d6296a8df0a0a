import itertools
import random
import signal

import pytest

import conftest as helpers
import cspsampling as cs
from cspsampling.formulas import BOT, Eq, Instance, Neq, Rel
from cspsampling.model import Signature, Structure

EDGE = Structure(Signature([("E", 2)]), 2, {"E": {(0, 1)}})
TWO_COLORING = Structure(Signature([("E", 2)]), 2, {"E": {(0, 1), (1, 0)}})


def triangle(sig):
    return Instance.of(
        sig, [Rel("E", ("x", "y")), Rel("E", ("y", "z")), Rel("E", ("z", "x"))]
    )


def test_hom_search_loopless_point_rejects_edge():
    point = Structure(EDGE.signature, 1, {})
    inst = Instance.of(EDGE.signature, [Rel("E", ("x", "y"))])
    assert not cs.hom_search(inst, point).satisfiable


def test_hom_search_finds_cycle_witness():
    fam = cs.alternating_cycles_sampling()
    sig = fam.signature
    delta2 = Instance.of(
        sig,
        [
            Rel("E1", ("x1", "x2")),
            Rel("E2", ("x2", "x3")),
            Rel("E1", ("x3", "x4")),
            Rel("E2", ("x4", "x1")),
        ],
    )
    target = fam.generate(4)[0]
    res = cs.hom_search(delta2, target)
    assert res.satisfiable
    assert cs.check_witness(delta2, target, res.assignment)


def test_hom_search_strict_order_has_no_two_cycle():
    fam = cs.dense_order_sampling()
    inst = Instance.of(fam.signature, [Rel("<", ("x", "y")), Rel("<", ("y", "x"))])
    assert not cs.hom_search(inst, fam.generate(3)[0]).satisfiable


def test_hom_search_matches_brute_force_exhaustively():
    sig = Signature([("E", 2), ("U", 1)])
    targets = [
        Structure(sig, 2, {"E": {(0, 1)}, "U": {(0,)}}),
        Structure(sig, 2, {"E": {(0, 1), (1, 0)}, "U": {(1,)}}),
        Structure(sig, 3, {"E": {(0, 1), (1, 2), (2, 0)}, "U": {(0,), (2,)}}),
    ]
    pool = ("x", "y", "z")
    count = 0
    for inst in helpers.enumerate_instances(sig, pool, 3):
        for target in targets:
            expected = helpers.brute_force_hom(inst, target) is not None
            got = cs.hom_search(inst, target)
            assert got.satisfiable == expected, inst.atoms
            if got.satisfiable:
                assert cs.check_witness(inst, target, got.assignment)
            count += 1
    assert count > 2500


def test_hom_search_zero_variables_and_bot():
    sig = EDGE.signature
    empty = Instance.of(sig, [])
    assert cs.hom_search(empty, EDGE).satisfiable
    assert cs.hom_search(Instance.of(sig, [BOT]), EDGE).satisfiable is False


def test_hom_search_repeated_argument_atoms():
    sig = Signature([("R", 3)])
    target = Structure(sig, 3, {"R": {(0, 0, 1), (1, 1, 1), (2, 1, 2)}})
    inst = Instance.of(sig, [Rel("R", ("x", "x", "y"))])
    res = cs.hom_search(inst, target)
    assert res.satisfiable and cs.check_witness(inst, target, res.assignment)
    only_diag = Instance.of(sig, [Rel("R", ("x", "x", "x"))])
    res = cs.hom_search(only_diag, target)
    assert res.satisfiable and res.assignment["x"] == 1


def test_solve_via_sampling_marked_colors_examples():
    fam = cs.marked_colors_sampling()
    sig = fam.signature
    sat = Instance.of(sig, [Rel("mark", ("x",)), Rel("red", ("x",))])
    unsat = Instance.of(sig, [Rel("red", ("x",)), Rel("blue", ("x",))])
    assert cs.solve_via_sampling(fam, sat).satisfiable
    assert not cs.solve_via_sampling(fam, unsat).satisfiable


def test_solve_via_sampling_nonconvexity_verdicts(robot_theory):
    sig = robot_theory.signature
    base = [Rel("min3", ("x", "y", "z"))]
    truly_unsat = Instance.of(sig, base + [Neq("x", "y"), Neq("x", "z")])
    assert not cs.solve_via_sampling(robot_theory, truly_unsat).satisfiable
    for extra in ([Neq("x", "y")], [Neq("y", "z")], [Neq("x", "y"), Neq("y", "z")]):
        inst = Instance.of(sig, base + extra)
        res = cs.solve_via_sampling(robot_theory, inst)
        assert res.satisfiable
        sample = robot_theory.generate(3)[res.sample_index]
        assert cs.check_witness(inst, sample, res.assignment)


def test_solve_via_sampling_neq_needs_equality_matching():
    sig = Signature([("U", 1)])
    fam = cs.explicit_sampling(sig, [Structure(sig, 2, {"U": {(0,)}})])
    inst = Instance.of(sig, [Neq("x", "y")])
    with pytest.raises(cs.SolverError):
        cs.solve_via_sampling(fam, inst)
    # a disequality that dies in contraction is decided syntactically
    bot = Instance.of(sig, [Eq("x", "y"), Neq("x", "y")])
    assert not cs.solve_via_sampling(fam, bot).satisfiable


def test_solve_via_sampling_signature_mismatch():
    fam = cs.dense_order_sampling()
    other = Instance.of(Signature([("E", 2)]), [Rel("E", ("x", "y"))])
    with pytest.raises(cs.SolverError):
        cs.solve_via_sampling(fam, other)


def test_targets_without_the_instances_relations_are_refused():
    only_f = Structure(Signature([("F", 2)]), 2, {"F": {(0, 1)}})
    missing = Instance.of(Signature([("E", 2)]), [Rel("E", ("x", "y"))])
    wider = Instance.of(Signature([("F", 3)]), [Rel("F", ("x", "y", "z"))])
    for solver in (cs.hom_search, cs.arc_consistency, cs.establish_23_consistency):
        for inst, symbol in ((missing, "'E'"), (wider, "'F'")):
            with pytest.raises(cs.SolverError, match=symbol):
                solver(inst, only_f)


def test_check_witness_refuses_a_missing_variable_and_falsum():
    sig = Signature([("E", 2)])
    target = Structure(sig, 2, {"E": {(0, 1)}})
    edge = Instance.of(sig, [Rel("E", ("x", "y"))])
    assert cs.check_witness(edge, target, {"x": 0, "y": 1})
    assert not cs.check_witness(edge, target, {"x": 0})
    falsum = Instance.of(sig, [Rel("E", ("x", "y")), BOT])
    assert not cs.check_witness(falsum, target, {"x": 0, "y": 1})


def test_arc_consistency_edge_instance():
    inst = Instance.of(EDGE.signature, [Rel("E", ("x", "y"))])
    state = cs.arc_consistency(inst, EDGE)
    assert state.domains == {"x": frozenset({0}), "y": frozenset({1})}


def test_arc_consistency_triangle_passes_but_hom_rejects():
    inst = triangle(TWO_COLORING.signature)
    state = cs.arc_consistency(inst, TWO_COLORING)
    assert state is not None
    assert all(d == frozenset({0, 1}) for d in state.domains.values())
    assert not cs.hom_search(inst, TWO_COLORING).satisfiable


def test_arc_consistency_empty_relation_is_inconsistent():
    empty = Structure(EDGE.signature, 2, {})
    inst = Instance.of(EDGE.signature, [Rel("E", ("x", "y"))])
    assert cs.arc_consistency(inst, empty) is None


def test_arc_consistency_rejects_equalities_and_disequalities():
    inst_eq = Instance.of(EDGE.signature, [Eq("x", "y")])
    inst_neq = Instance.of(EDGE.signature, [Neq("x", "y")])
    for inst in (inst_eq, inst_neq):
        with pytest.raises(cs.SolverError):
            cs.arc_consistency(inst, EDGE)


def test_arc_consistency_never_rejects_satisfiable():
    sig = Signature([("E", 2), ("U", 1)])
    target = Structure(sig, 3, {"E": {(0, 1), (1, 2)}, "U": {(0,), (1,)}})
    for inst in helpers.enumerate_instances(sig, ("x", "y", "z"), 2,
                                            with_equalities=False):
        if helpers.brute_force_hom(inst, target) is not None:
            assert cs.arc_consistency(inst, target) is not None


def test_establish_23_consistency_examples():
    inst = Instance.of(EDGE.signature, [Rel("E", ("x", "y"))])
    assert cs.establish_23_consistency(inst, EDGE)
    fam = cs.alternating_cycles_sampling()
    sig = fam.signature
    target = fam.generate(2)[0]
    mixed = Instance.of(
        sig,
        [Rel("E1", ("x", "y")), Rel("E2", ("y", "x")), Rel("E1", ("y", "w"))],
    )
    assert cs.establish_23_consistency(mixed, target) == cs.hom_search(
        mixed, target
    ).satisfiable
    with pytest.raises(cs.SolverError):
        cs.establish_23_consistency(Instance.of(sig, [Neq("x", "y")]), target)


def test_establish_23_refines_arc_consistency():
    sig = Signature([("E", 2), ("U", 1)])
    target = Structure(sig, 3, {"E": {(0, 1), (1, 2)}, "U": {(0,)}})
    for inst in helpers.enumerate_instances(sig, ("x", "y", "z"), 2,
                                            with_equalities=False):
        if cs.arc_consistency(inst, target) is None:
            assert not cs.establish_23_consistency(inst, target)


def test_solve_ac_over_sampling_examples(robot_theory):
    sig = robot_theory.signature
    precedence = Instance.of(
        sig,
        [Rel("lt", ("x", "y")), Rel("lt", ("y", "z")), Rel("p0", ("x",)),
         Rel("p1", ("z",))],
    )
    assert cs.solve_ac_over_sampling(robot_theory, precedence).satisfiable
    assert cs.solve_via_sampling(robot_theory, precedence).satisfiable
    cyc = Instance.of(sig, [Rel("lt", ("x", "y")), Rel("lt", ("y", "x"))])
    assert not cs.solve_ac_over_sampling(robot_theory, cyc).satisfiable
    assert cs.solve_ac_over_sampling(robot_theory, Instance.of(sig, [])).satisfiable
    with pytest.raises(cs.SolverError):
        cs.solve_ac_over_sampling(
            robot_theory, Instance.of(sig, [Neq("x", "y")])
        )


def test_solver_verdicts_match_family_deciders_exhaustively():
    """Sampling property at desk scale: search over samples equals the
    reference decider on every small instance."""
    families = [
        cs.dense_order_sampling(),
        cs.colored_partition_sampling(2),
        cs.successor_sampling(),
        cs.alternating_cycles_sampling(),
        cs.marked_colors_sampling(),
    ]
    for fam in families:
        count = 0
        for inst in helpers.enumerate_instances(
            fam.signature, ("x", "y", "z"), 3
        ):
            expected = fam.decider(inst)
            got = cs.solve_via_sampling(fam, inst).satisfiable
            assert got == expected, (fam.name, inst.atoms)
            count += 1
        assert count > 250, fam.name


def test_solver_verdicts_match_family_deciders_randomly():
    families = [
        cs.dense_order_sampling(),
        cs.colored_partition_sampling(2),
        cs.successor_sampling(),
        cs.alternating_cycles_sampling(),
        cs.succ2col_sampling(),
        cs.marked_colors_sampling(),
    ]
    rng = random.Random(271828)
    for fam in families:
        for _ in range(1000):
            inst = helpers.random_instance(fam.signature, rng, max_vars=5,
                                           max_atoms=6)
            expected = fam.decider(inst)
            got = cs.solve_via_sampling(fam, inst).satisfiable
            assert got == expected, (fam.name, inst.atoms)


def test_adding_an_atom_never_flips_unsat_to_sat():
    fam = cs.alternating_cycles_sampling()
    rng = random.Random(5)
    sig = fam.signature
    flips = 0
    for _ in range(300):
        inst = helpers.random_instance(sig, rng, max_vars=4, max_atoms=4)
        base = cs.solve_via_sampling(fam, inst).satisfiable
        extra = helpers.random_instance(sig, rng, max_vars=4, max_atoms=1)
        bigger = Instance.of(
            sig, inst.atoms + extra.atoms,
            declared=inst.variables + extra.variables,
        )
        more = cs.solve_via_sampling(fam, bigger).satisfiable
        if not base:
            assert not more
        flips += base and not more
    assert flips > 0  # the check is not vacuous


def test_solve_nu_over_sampling_on_alternating_cycles():
    fam = cs.alternating_cycles_sampling()
    sig = fam.signature
    rng = random.Random(123)
    for _ in range(150):
        inst = helpers.random_instance(sig, rng, max_vars=5, max_atoms=5,
                                       neq_ok=False)
        contracted, _ = cs.contract_equalities(inst)
        if contracted.has_bot():
            continue
        nu = cs.solve_nu_over_sampling(fam, inst)
        hom = cs.solve_via_sampling(fam, inst)
        assert nu.satisfiable == hom.satisfiable, inst.atoms
        assert nu.assignment is None  # consistency verdicts carry no witness
    with pytest.raises(cs.SolverError):
        cs.solve_nu_over_sampling(
            fam, Instance.of(sig, [Neq("x", "y")])
        )


def test_verdicts_independent_of_sample_order():
    fam = cs.marked_colors_sampling()
    swapped = cs.explicit_sampling(
        fam.signature,
        lambda n: tuple(reversed(fam.generate(n))),
        equality_matching=True,
        name="swapped",
    )
    rng = random.Random(17)
    for _ in range(200):
        inst = helpers.random_instance(fam.signature, rng, max_vars=4,
                                       max_atoms=5)
        assert (
            cs.solve_via_sampling(fam, inst).satisfiable
            == cs.solve_via_sampling(swapped, inst).satisfiable
        )


def test_hom_search_deep_path_needs_no_recursion():
    loopy = Structure(EDGE.signature, 2, {"E": {(0, 1), (1, 0), (0, 0)}})
    path = Instance.of(
        EDGE.signature, [Rel("E", (f"v{i}", f"v{i + 1}")) for i in range(1500)]
    )
    res = cs.hom_search(path, loopy)
    assert res.satisfiable
    assert cs.check_witness(path, loopy, res.assignment)


def test_hom_search_picks_variables_in_better_than_quadratic_time():
    # choosing each variable by a scan over all open ones took 6 s at 6,000
    # atoms and grows with the square of the path length
    class _Slow(Exception):
        pass

    def slow(signum, frame):
        raise _Slow

    loopy = Structure(EDGE.signature, 2, {"E": {(0, 1), (1, 0), (0, 0)}})
    path = Instance.of(
        EDGE.signature, [Rel("E", (f"v{i}", f"v{i + 1}")) for i in range(20_000)]
    )
    previous = signal.signal(signal.SIGALRM, slow)
    signal.setitimer(signal.ITIMER_REAL, 20.0)
    try:
        res = cs.hom_search(path, loopy)
    except _Slow:
        pytest.fail("no verdict on a 20,000-atom path within 20 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert res.satisfiable
    assert cs.check_witness(path, loopy, res.assignment)


def test_arc_consistency_equals_brute_force_gac_on_ternary_atoms():
    sig = Signature([("T", 3), ("E", 2)])
    targets = [
        Structure(sig, 3, {"T": {(0, 0, 1), (0, 1, 2), (1, 2, 2), (2, 0, 0)},
                           "E": {(0, 1), (1, 2)}}),
        Structure(sig, 2, {"T": {(0, 0, 1), (1, 0, 0), (1, 1, 1)},
                           "E": {(0, 1), (1, 1)}}),
    ]
    count = 0
    for inst in helpers.enumerate_instances(sig, ("x", "y", "z"), 3,
                                            with_equalities=False):
        for target in targets:
            state = cs.arc_consistency(inst, target)
            expected = helpers.brute_force_gac(inst, target)
            assert (None if state is None else state.domains) == expected, inst.atoms
            count += 1
    assert count > 15000


def test_establish_23_on_triple_and_wide_atoms():
    sig = Signature([("T", 3), ("Q", 4)])
    target = Structure(sig, 2, {
        "T": {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)},
        "Q": {(0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 1), (1, 1, 0, 0)},
    })
    pool = ("x", "y", "z", "w")
    universe = [Rel("T", args) for args in itertools.product(pool, repeat=3)]
    universe += [Rel("Q", args) for args in itertools.permutations(pool)]
    count = refuted = 0
    for r in range(3):
        for combo in itertools.combinations(universe, r):
            inst = Instance.of(sig, combo, declared=pool)
            nu = cs.establish_23_consistency(inst, target)
            if helpers.brute_force_hom(inst, target) is not None:
                assert nu, inst.atoms
            if cs.arc_consistency(inst, target) is None:
                assert not nu, inst.atoms
            elif not nu:
                refuted += 1
            count += 1
    assert count > 3000
    assert refuted > 0  # the pair closure prunes beyond arc consistency


def test_establish_23_strips_only_the_leaves_that_cannot_decide_it():
    # each arc passes GAC, but u = 0 has no partner in v under E and F together
    sig = Signature([("D", 2), ("U", 1), ("E", 2), ("F", 2)])
    target = Structure(sig, 3, {
        "D": {(a, b) for a in range(3) for b in range(3) if a != b},
        "U": {(1,), (2,)},
        "E": {(a, a) for a in range(3)},
        "F": {(0, 1), (1, 0), (1, 1), (2, 2)},
    })
    joint = Instance.of(sig, [
        Rel("U", ("x",)), Rel("U", ("y",)), Rel("D", ("x", "y")), Rel("D", ("x", "u")),
        Rel("D", ("y", "u")), Rel("E", ("u", "v")), Rel("F", ("u", "v")),
    ])
    # K3 over the 2-element disequality, with a pendant variable
    pendant_k3 = Instance.of(
        TWO_COLORING.signature,
        [Rel("E", pair) for pair in (("a", "b"), ("b", "c"), ("c", "a"), ("c", "p"))],
    )
    for inst, target in ((joint, target), (pendant_k3, TWO_COLORING)):
        assert cs.arc_consistency(inst, target) is not None
        assert not cs.establish_23_consistency(inst, target)
        assert not helpers.reference_23_consistency(inst, target)

    # pendant trees hung on cliques of triple and 4-ary atoms, some with
    # binary atoms inside
    sig = Signature([("T", 3), ("Q", 4), ("E", 2), ("F", 2)])
    rng = random.Random(2110)
    refuted = 0
    for _ in range(400):
        size = rng.randint(2, 3)
        target = Structure(sig, size, {
            name: {tuple(rng.randrange(size) for _ in range(arity))
                   for _ in range(rng.randint(1, 2 * size ** min(arity, 2)))}
            for name, arity in sig
        })
        clique = ["x", "y", "z", "w"][: rng.randint(3, 4)]
        atoms = [
            Rel("Q", rng.sample(clique, 4)) if len(clique) == 4 and rng.random() < 0.5
            else Rel("T", rng.sample(clique, 3))
            for _ in range(rng.randint(1, 2))
        ]
        atoms += [Rel(rng.choice(("E", "F")), rng.sample(clique, 2)) for _ in range(rng.randint(0, 2))]
        hung = list(clique)
        for i in range(rng.randint(1, 3)):
            u, v = rng.choice(hung), f"p{i}"
            hung.append(v)
            for _ in range(rng.randint(1, 2)):  # two atoms on a pair must hold together
                atoms.append(Rel(rng.choice(("E", "F")), (u, v)[:: rng.choice((1, -1))]))
        inst = Instance.of(sig, atoms)
        nu = cs.establish_23_consistency(inst, target)
        assert nu == helpers.reference_23_consistency(inst, target), (inst.atoms, target)
        refuted += not nu and cs.arc_consistency(inst, target) is not None
    assert refuted > 5  # the closure prunes beyond arc consistency here


def test_pair_matrix_transpose_matches_a_naive_transpose():
    from cspsampling import solvers

    rng = random.Random(88)
    for side in (1 << k for k in range(9)):
        swaps = solvers._transpose_swaps(side)
        for _ in range(4):
            matrix = rng.getrandbits(side * side)
            naive = sum(
                1 << (b * side + a)
                for a in range(side)
                for b in range(side)
                if matrix >> (a * side + b) & 1
            )
            assert solvers._transpose(matrix, swaps) == naive, side


class _Thrashed(Exception):
    pass


def _deep_unsat_robot_instance(sig, rng, n):
    """Atoms true under a random plan of ranks and robots, plus the
    contradiction min3(w,x,y) & lt(x,w): min(x,y) <= x < w."""
    vs = [f"v{i}" for i in range(n)]
    rank = {v: rng.randint(1, n) for v in vs}
    robot_of_rank: dict[int, str] = {}
    part = {v: robot_of_rank.setdefault(rank[v], rng.choice(("p0", "p1"))) for v in vs}
    atoms = []
    for _ in range(n):
        a, b, c = rng.choice(vs), rng.choice(vs), rng.choice(vs)
        roll = rng.random()
        if roll < 0.35 and rank[a] != rank[b]:
            atoms.append(Rel("lt", (a, b) if rank[a] < rank[b] else (b, a)))
        elif roll < 0.6:
            atoms.append(Rel("min3", (b if rank[b] <= rank[c] else c, b, c)))
        else:
            atoms.append(Rel(part[a], (a,)))
    w, x, y = rng.sample(vs, 3)
    atoms += [Rel("min3", (w, x, y)), Rel("lt", (x, w))]
    return Instance.of(sig, atoms, declared=vs)


def test_hom_search_refutes_a_contradiction_inside_a_wide_atom(robot_theory):
    # search that starts from a root blind to the min3 atom thrashes on these
    def thrashed(signum, frame):
        raise _Thrashed

    rng = random.Random(5)
    cases = [
        _deep_unsat_robot_instance(robot_theory.signature, rng, (5, 6, 7)[i % 3])
        for i in range(30)
    ]
    for n in (5, 6, 7):
        robot_theory.generate(n)  # build the levels outside the alarm
    previous = signal.signal(signal.SIGALRM, thrashed)
    try:
        for inst in cases:
            signal.setitimer(signal.ITIMER_REAL, 2.0)
            try:
                assert not cs.solve_via_sampling(robot_theory, inst).satisfiable
            except _Thrashed:
                pytest.fail(f"no verdict within 2 s on {inst.atoms}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _reference_corpus():
    """Seeded (instance, target) pairs for the per-value references: robot
    product levels (min3 gives triple atoms), a plain structure with a
    ternary and a 4-ary relation, products of random factors with a 4-ary
    relation, whose wide atoms take the exact Hall check, alternating-cycles
    samples at levels 1-8 (2, 8, 20 and 36 elements, each padded to its own
    matrix side) under random, tree-shaped and unicyclic instances, and
    1-element targets (side 1)."""
    import cspsampling.sampling as sampling

    rng = random.Random(20261018)
    robot = cs.product_sampling(helpers.order_family(), helpers.colors_family())
    for _ in range(150):
        inst = helpers.random_instance(robot.signature, rng, max_vars=5, max_atoms=7,
                                       neq_ok=False)
        contracted, _ = cs.contract_equalities(inst)
        if not contracted.has_bot():
            yield contracted, robot.generate(len(contracted.variables))[0]
    sig = Signature([("T", 3), ("Q", 4), ("E", 2)])
    for _ in range(30):
        size = rng.randint(2, 4)
        target = Structure(sig, size, {
            name: {tuple(rng.randrange(size) for _ in range(arity))
                   for _ in range(rng.randint(2, 3 * size * size))}
            for name, arity in sig
        })
        for _ in range(8):
            inst = helpers.random_instance(sig, rng, max_vars=5, max_atoms=5, neq_ok=False)
            contracted, _ = cs.contract_equalities(inst)
            if not contracted.has_bot():
                yield contracted, target
    sig1, sig2 = Signature([("Q", 4), ("T", 3)]), Signature([("U", 1), ("F", 2)])
    for _ in range(30):
        factors = []
        for fsig in (sig1, sig2):
            size = rng.randint(1, 3)
            factors.append(Structure(fsig, size, {
                name: {tuple(rng.randrange(size) for _ in range(arity))
                       for _ in range(rng.randint(1, 8))}
                for name, arity in fsig
            }))
        signature = sig1.union(sig2)
        target = sampling._product_structure(*factors, signature, set(sig1.names()))
        for _ in range(6):
            inst = helpers.random_instance(signature, rng, max_vars=4, max_atoms=5,
                                           neq_ok=False)
            contracted, _ = cs.contract_equalities(inst)
            if not contracted.has_bot():
                yield contracted, target
    cycles = cs.alternating_cycles_sampling()
    for level in range(1, 9):
        vs = [f"x{i}" for i in range(level)]
        sources, sinks = vs[: max(1, level // 2)], vs[max(1, level // 2):] or vs
        for _ in range(6):
            # mostly edges of alternating paths from sources to sinks, some anywhere
            atoms = [
                Rel("E1", (rng.choice(sources), rng.choice(sinks))) if roll < 0.45
                else Rel("E2", (rng.choice(sinks), rng.choice(sources))) if roll < 0.9
                else Rel(rng.choice(("E1", "E2")), (rng.choice(vs), rng.choice(vs)))
                for roll in (rng.random() for _ in range(level))
            ]
            yield Instance.of(cycles.signature, atoms, declared=vs), cycles.generate(level)[0]
    for level in range(2, 9):
        vs = [f"x{i}" for i in range(level)]
        for extra in (0, 1):  # a tree; then one more edge, closing a cycle or doubling an edge
            for _ in range(4):
                edges = [(rng.choice(vs[:i]), v) for i, v in enumerate(vs) if i]
                edges += [tuple(rng.sample(vs, 2)) for _ in range(extra)]
                atoms = [
                    Rel(rng.choice(("E1", "E2")), edge[:: rng.choice((1, -1))]) for edge in edges
                ]
                yield Instance.of(cycles.signature, atoms, declared=vs), cycles.generate(level)[0]
    for relations in ({"T": {(0, 0, 0)}, "E": {(0, 0)}}, {"Q": {(0, 0, 0, 0)}, "E": {(0, 0)}}):
        point = Structure(sig, 1, relations)
        for _ in range(8):
            inst = helpers.random_instance(sig, rng, max_vars=4, max_atoms=4, neq_ok=False)
            contracted, _ = cs.contract_equalities(inst)
            if not contracted.has_bot():
                yield contracted, point


def test_whole_mask_steps_match_their_per_value_references(monkeypatch):
    from cspsampling import solvers

    corpus = list(_reference_corpus())
    states, closures, witnesses = [], [], []
    for inst, target in corpus:
        state = cs.arc_consistency(inst, target)
        states.append(None if state is None else state.domains)
        closures.append(cs.establish_23_consistency(inst, target))
        witnesses.append(cs.hom_search(inst, target).assignment)
    counts = [sum(x is not None for x in xs) for xs in (states, witnesses)]
    assert counts[0] > 100 and counts[1] > 50 and 50 < sum(closures) < len(corpus)

    monkeypatch.setattr(solvers, "_gac_fixpoint", helpers.reference_gac_fixpoint)
    monkeypatch.setattr(Structure, "support_masks", helpers.reference_support_masks)
    for (inst, target), state, closure, witness in zip(corpus, states, closures, witnesses):
        reference = cs.arc_consistency(inst, target)
        assert state == (None if reference is None else reference.domains), inst.atoms
        assert closure == helpers.reference_23_consistency(inst, target), inst.atoms
        assert witness == cs.hom_search(inst, target).assignment, inst.atoms


def test_gac_fixpoint_makes_one_wide_query_per_atom_per_sweep(monkeypatch, robot_theory):
    from cspsampling import solvers

    calls, sweeps = [], []
    query = Structure.support_masks
    run_arcs = solvers._run_arcs

    def counted_query(self, name, args, masks):
        calls.append(args)
        return query(self, name, args, masks)

    def counted_arcs(*args):  # each pass that the arcs survive starts a sweep
        passed = run_arcs(*args)
        if passed:
            sweeps.append(None)
        return passed

    monkeypatch.setattr(Structure, "support_masks", counted_query)
    monkeypatch.setattr(solvers, "_run_arcs", counted_arcs)
    rng = random.Random(5)
    total = 0
    for i in range(30):
        inst = _deep_unsat_robot_instance(robot_theory.signature, rng, (5, 6, 7)[i % 3])
        contracted, _ = cs.contract_equalities(inst)
        wide = {a for a in contracted.atoms if len(set(a.args)) > 2}
        calls.clear()
        sweeps.clear()
        (target,) = robot_theory.generate(len(contracted.variables))
        assert cs.arc_consistency(contracted, target) is None
        assert len(calls) <= len(wide) * len(sweeps)
        total += len(calls)
    assert total >= 30


def _bell(k):
    """The number of equality shapes of k positions."""
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def test_plans_are_cached_per_symbol_and_shape_not_per_instance():
    family = cs.product_sampling(helpers.order_family(), helpers.colors_family())
    rng = random.Random(23)
    levels = set()
    for i in range(500):
        inst = helpers.random_instance(family.signature, rng, max_vars=4, max_atoms=6)
        rename = {v: f"r{i}_{v}" for v in inst.variables}
        fresh = Instance.of(family.signature, [
            Rel(a.symbol, [rename[x] for x in a.args]) if isinstance(a, Rel)
            else type(a)(rename[a.left], rename[a.right]) if isinstance(a, (Eq, Neq))
            else a
            for a in inst.atoms
        ], declared=[rename[v] for v in inst.variables])
        contracted, _ = cs.contract_equalities(fresh)
        levels.add(len(contracted.variables))
        cs.solve_via_sampling(family, fresh)
        if not any(isinstance(a, Neq) for a in contracted.atoms):
            cs.solve_ac_over_sampling(family, fresh)
    shapes = sum(_bell(arity) for _, arity in family.signature)
    for n in levels:
        for sample in family.generate(n):
            plans = [key for key in sample._indexes if key[0] == "plan"]
            assert 0 < len(plans) <= shapes, n


def test_raw_instances_keep_the_public_contract():
    sig = TWO_COLORING.signature
    raw = Instance.of(sig, [Rel("E", ("x", "y")), Rel("E", ("y", "z")), Eq("x", "w")])
    res = cs.hom_search(raw, TWO_COLORING)
    assert res.satisfiable and res.assignment["x"] == res.assignment["w"]
    assert cs.check_witness(raw, TWO_COLORING, res.assignment)
    for solver in (cs.arc_consistency, cs.establish_23_consistency):
        with pytest.raises(cs.SolverError, match="equality-contracted"):
            solver(raw, TWO_COLORING)


def test_ac_states_list_their_domains_and_compare_by_them():
    states = []
    for inst, target in _reference_corpus():
        state = cs.arc_consistency(inst, target)
        assert (None if state is None else state.domains) == helpers.brute_force_gac(
            inst, target
        ), inst.atoms
        if state is not None:
            states.append(state)
    assert len(states) > 100
    for first, second in zip(states, states[1:] + states[:1]):
        assert (first == second) == (first.domains == second.domains)
    assert all(state == cs.ACState(dict(state.masks)) for state in states)


def test_check_witness_refuses_an_atom_on_a_symbol_the_target_lacks():
    inst = Instance.of(Signature([("F", 2)]), [Rel("F", ("x", "y"))])
    assert cs.check_witness(inst, TWO_COLORING, {"x": 0, "y": 1}) is False
