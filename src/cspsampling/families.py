"""Built-in sample families.

Each family couples a generator (index n -> finite structures) with a
reference decision procedure for its theory. The deciders are exponential
desk-scale oracles used by tests and by verify_equality_matching; the
polynomial path is always solve_via_sampling over the generated samples.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from . import qf
from .combinatorics import de_bruijn_binary, iter_identifications
from .formulas import Instance, Neq, Rel, contract_equalities
from .model import Signature, Structure, disjoint_union
from .sampling import SampleFamily, SamplingError, _check_elements

ExpansionDef = tuple[str, int, "qf.QFDef | str"]


def _parse_expansion(
    expansion: Sequence[ExpansionDef], base: Signature
) -> list[tuple[str, int, qf.QFDef]]:
    parsed = []
    for name, arity, defn in expansion:
        if isinstance(defn, str):
            defn = qf.parse_definition(defn)
        try:
            qf.check_definition(defn, base, int(arity))
        except qf.DefinitionError as err:
            raise qf.DefinitionError(f"definition of {name!r}: {err}") from None
        parsed.append((name, int(arity), defn))
    return parsed


# --- dense linear order -------------------------------------------------------


def dense_order_sampling(
    expansion: Optional[Sequence[ExpansionDef]] = None,
    name: str = "dense-order",
) -> SampleFamily:
    """Sampling for reducts of first-order expansions of a dense linear order.

    The n-th sample is the chain 1 < 2 < ... < n. Every expansion relation
    is listed by order type (``qf.order_types``): its definition over {<, =}
    is evaluated once per weak ordering of its arguments, and each
    satisfied ordering with m blocks is listed from the increasing m-subsets
    of the chain. With no expansion given, the signature is the bare strict
    order ``<``.
    """
    if expansion is None:
        expansion = [(qf.ORDER_SYMBOL, 2, qf.RelAtom(qf.ORDER_SYMBOL, (1, 2)))]
    parsed = _parse_expansion(expansion, Signature([(qf.ORDER_SYMBOL, 2)]))
    signature = Signature([(n_, a) for n_, a, _ in parsed])

    def builder(n: int) -> Sequence[Structure]:
        relations = {
            rel: qf.define_by_type(defn, *qf.order_types(n, arity))
            for rel, arity, defn in parsed
        }
        return [Structure(signature, n, relations, [str(i + 1) for i in range(n)])]

    defs = {rel: defn for rel, _, defn in parsed}

    def base_test(symbol: str, values: tuple[int, ...]) -> bool:
        return values[0] < values[1]

    def decider(inst: Instance) -> bool:
        """Order-consistency oracle: search rank assignments exhaustively.

        Every quantifier-free condition over {<, =} depends only on the
        relative order of the assigned values, and any order pattern of k
        variables is realized inside {1..k}.
        """
        contracted, _ = contract_equalities(inst)
        if contracted.has_bot():
            return False
        variables = contracted.variables
        k = len(variables)
        if k == 0:
            return True
        pos = {v: i for i, v in enumerate(variables)}
        rel_atoms = [
            (defs[a.symbol], tuple(pos[v] for v in a.args))
            for a in contracted.atoms
            if isinstance(a, Rel)
        ]
        neq_pairs = [
            (pos[a.left], pos[a.right])
            for a in contracted.atoms
            if isinstance(a, Neq)
        ]
        for ranks in itertools.product(range(k), repeat=k):
            if any(ranks[i] == ranks[j] for i, j in neq_pairs):
                continue
            if all(
                qf.holds(defn, tuple(ranks[i] for i in args), base_test)
                for defn, args in rel_atoms
            ):
                return True
        return False

    return SampleFamily(
        signature,
        builder,
        equality_matching=True,
        no_pp_algebraicity=True,
        decider=decider,
        name=name,
    )


# --- infinite colored partition -------------------------------------------------


def colored_partition_sampling(
    m: int,
    expansion: Optional[Sequence[ExpansionDef]] = None,
    name: Optional[str] = None,
) -> SampleFamily:
    """Sampling for reducts of first-order expansions of m infinite parts.

    The n-th sample has n elements in each of the m unary parts. With no
    expansion given, the signature is the parts P1..Pm themselves.
    """
    if m < 1:
        raise SamplingError("a partition needs at least one part")
    _check_elements(m, f"a partition into {m:,} parts")
    part_names = [qf.part_symbol(j) for j in range(1, m + 1)]
    if expansion is None:
        expansion = [(p, 1, qf.RelAtom(p, (1,))) for p in part_names]
    parsed = _parse_expansion(expansion, Signature([(p, 1) for p in part_names]))
    signature = Signature([(n_, a) for n_, a, _ in parsed])

    def builder(n: int) -> Sequence[Structure]:
        _check_elements(n * m, f"the partition sample at n={n}")
        relations = {
            rel: qf.define_by_type(defn, *qf.part_types(n, m, arity))
            for rel, arity, defn in parsed
        }
        # element id i*m + (j-1) is the i-th point of part j
        labels = [f"{part_names[e % m]}#{e // m + 1}" for e in range(n * m)]
        return [Structure(signature, n * m, relations, labels)]

    defs = {rel: defn for rel, _, defn in parsed}
    part_index = {p: j + 1 for j, p in enumerate(part_names)}

    def decider(inst: Instance) -> bool:
        """Color-consistency oracle over identification patterns.

        A defined relation depends only on which arguments coincide and
        which part each one lies in, so enumerate partitions of the
        variables and colorings of the blocks.
        """
        contracted, _ = contract_equalities(inst)
        if contracted.has_bot():
            return False
        variables = contracted.variables
        if not variables:
            return True
        rel_atoms = [a for a in contracted.atoms if isinstance(a, Rel)]
        neq_pairs = [
            (a.left, a.right) for a in contracted.atoms if isinstance(a, Neq)
        ]
        for blocks, _ in iter_identifications(variables, neq_pairs):
            block_of = {v: i for i, block in enumerate(blocks) for v in block}
            for colors in itertools.product(range(1, m + 1), repeat=len(blocks)):

                def base_test(symbol: str, values: tuple[int, ...]) -> bool:
                    return colors[values[0]] == part_index[symbol]

                ok = all(
                    qf.holds(
                        defs[a.symbol],
                        tuple(block_of[v] for v in a.args),
                        base_test,
                    )
                    for a in rel_atoms
                )
                if ok:
                    return True
        return False

    return SampleFamily(
        signature,
        builder,
        equality_matching=True,
        no_pp_algebraicity=True,
        decider=decider,
        name=name or f"partition-{m}",
    )


# --- successor ----------------------------------------------------------------


SUCC = "succ"


def successor_sampling(name: str = "successor") -> SampleFamily:
    """Sampling for the theory of the successor relation.

    The n-th sample is the disjoint union of n directed paths with n+1
    elements each. A single path would break disequalities between
    independent chain fragments; n copies restore equality matching.
    """
    signature = Signature([(SUCC, 2)])

    def builder(n: int) -> Sequence[Structure]:
        path = Structure(
            signature,
            n + 1,
            {SUCC: {(i, i + 1) for i in range(n)}},
        )
        return [disjoint_union([path] * n)]

    def decider(inst: Instance) -> bool:
        """Merge forced equalities (the relation is a bijective partial
        shift), then reject directed cycles and violated disequalities."""
        contracted, _ = contract_equalities(inst)
        if contracted.has_bot():
            return False
        edges, find = _merge_functional(
            contracted, {SUCC: ("functional", "injective")}
        )
        succ_edges = edges[SUCC]
        if _has_directed_cycle(succ_edges):
            return False
        return not _neq_violated(contracted, find)

    return SampleFamily(
        signature,
        builder,
        equality_matching=True,
        no_pp_algebraicity=False,
        decider=decider,
        name=name,
    )


# --- two alternating matchings --------------------------------------------------


E1, E2 = "E1", "E2"


def alternating_cycles_sampling(name: str = "alternating-cycles") -> SampleFamily:
    """Sampling for the union of two edge theories by alternating cycles.

    The n-th sample is one structure containing ceil(n/2k) copies of the
    directed alternating 2k-cycle for each k up to ceil(n/2). On a cycle,
    E1 steps from even to odd positions and E2 closes the loop back, so
    every element has at most one edge of each kind in each direction.
    """
    signature = Signature([(E1, 2), (E2, 2)])

    def builder(n: int) -> Sequence[Structure]:
        parts = []
        for k in range(1, (n + 1) // 2 + 1):
            cycle = _alternating_cycle(k)
            parts.extend([cycle] * (-(-n // (2 * k))))
        return [disjoint_union(parts)]

    def decider(inst: Instance) -> bool:
        """Merge forced equalities, then check that no variable is used on
        both sides of the alternation (sources carry E1-out/E2-in, targets
        E1-in/E2-out); any remaining alternating path or even cycle embeds."""
        contracted, _ = contract_equalities(inst)
        if contracted.has_bot():
            return False
        edges, find = _merge_functional(
            contracted,
            {E1: ("functional", "injective"), E2: ("functional", "injective")},
        )
        side_a: set[str] = set()  # E1-out or E2-in
        side_b: set[str] = set()  # E1-in or E2-out
        for u, v in edges[E1]:
            side_a.add(u)
            side_b.add(v)
        for u, v in edges[E2]:
            side_b.add(u)
            side_a.add(v)
        if side_a & side_b:
            return False
        return not _neq_violated(contracted, find)

    return SampleFamily(
        signature,
        builder,
        equality_matching=True,
        no_pp_algebraicity=False,
        decider=decider,
        name=name,
    )


def _alternating_cycle(k: int) -> Structure:
    """Canonical database of the alternating cycle of length 2k."""
    size = 2 * k
    return Structure(
        Signature([(E1, 2), (E2, 2)]),
        size,
        {
            E1: {(2 * i, 2 * i + 1) for i in range(k)},
            E2: {(2 * i + 1, (2 * i + 2) % size) for i in range(k)},
        },
    )


# --- successor with two colors ---------------------------------------------------


P0, P1 = "P0", "P1"


def succ2col_sampling(name: str = "succ-2col") -> SampleFamily:
    """Sampling for successor joined with two colors; exponential by necessity.

    The n-th sample is a directed successor cycle of length 2**n whose
    elements are colored along a binary de Bruijn sequence of order n, so
    every length-n color word is realized by exactly one chain start.
    """
    signature = Signature([(SUCC, 2), (P0, 1), (P1, 1)])

    def builder(n: int) -> Sequence[Structure]:
        _check_elements(1 << n, f"the succ2col sample at n={n}")
        seq = de_bruijn_binary(n)
        size = len(seq)
        return [
            Structure(
                signature,
                size,
                {
                    SUCC: {(i, (i + 1) % size) for i in range(size)},
                    P0: {(i,) for i in range(size) if seq[i] == 0},
                    P1: {(i,) for i in range(size) if seq[i] == 1},
                },
                [f"{i}|{seq[i]}" for i in range(size)],
            )
        ]

    def decider(inst: Instance) -> bool:
        """Successor closure plus a per-element color-uniqueness check."""
        contracted, _ = contract_equalities(inst)
        if contracted.has_bot():
            return False
        edges, find = _merge_functional(
            contracted, {SUCC: ("functional", "injective")}
        )
        if _has_directed_cycle(edges[SUCC]):
            return False
        colors: dict[str, set[str]] = {}
        for atom in contracted.atoms:
            if isinstance(atom, Rel) and atom.symbol in (P0, P1):
                colors.setdefault(find(atom.args[0]), set()).add(atom.symbol)
        if any(len(cs) > 1 for cs in colors.values()):
            return False
        return not _neq_violated(contracted, find)

    return SampleFamily(
        signature,
        builder,
        equality_matching=True,
        no_pp_algebraicity=False,
        decider=decider,
        name=name,
    )


# --- unique mark over two colors with explicit inequality -------------------------


MARK, RED, BLUE, DIFF = "mark", "red", "blue", "diff"


def marked_colors_sampling(name: str = "marked-colors") -> SampleFamily:
    """Two-sample family for a theory that no single structure can sample.

    The theory has a unary mark holding on at most one element, two
    disjoint unary colors, and a binary relation that is exactly
    disequality. The n-th level carries two structures on 2n elements,
    one with the mark on a red element and one with it on a blue element;
    either alone would wrongly decide instances asking for the mark's color.
    """
    signature = Signature([(MARK, 1), (RED, 1), (BLUE, 1), (DIFF, 2)])

    def builder(n: int) -> Sequence[Structure]:
        diff = {(i, j) for i in range(2 * n) for j in range(2 * n) if i != j}
        common = {
            RED: {(i,) for i in range(n)},
            BLUE: {(i,) for i in range(n, 2 * n)},
            DIFF: diff,
        }
        labels = [str(i + 1) for i in range(2 * n)]
        return [
            Structure(signature, 2 * n, {**common, MARK: {(0,)}}, labels),
            Structure(signature, 2 * n, {**common, MARK: {(n,)}}, labels),
        ]

    def decider(inst: Instance) -> bool:
        """All marked variables collapse to one element; then check color
        clashes and disequalities (the binary relation is disequality)."""
        contracted, _ = contract_equalities(inst)
        if contracted.has_bot():
            return False
        find, union = _union_find(contracted.variables)
        marked = [
            a.args[0] for a in contracted.atoms
            if isinstance(a, Rel) and a.symbol == MARK
        ]
        for v in marked[1:]:
            union(v, marked[0])
        colors: dict[str, set[str]] = {}
        for a in contracted.atoms:
            if isinstance(a, Rel) and a.symbol in (RED, BLUE):
                colors.setdefault(find(a.args[0]), set()).add(a.symbol)
        if any(len(cs) > 1 for cs in colors.values()):
            return False
        for a in contracted.atoms:
            if isinstance(a, Rel) and a.symbol == DIFF:
                if find(a.args[0]) == find(a.args[1]):
                    return False
        return not _neq_violated(contracted, find)

    return SampleFamily(
        signature,
        builder,
        equality_matching=True,
        no_pp_algebraicity=False,
        decider=decider,
        name=name,
    )


# --- shared closure helpers --------------------------------------------------------


def _union_find(
    variables: Sequence[str],
) -> tuple[Callable[[str], str], Callable[[str, str], None]]:
    """Find and union over the variables; union(a, b) puts a's root under b's."""
    parent = {v: v for v in variables}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    return find, union


def _merge_functional(
    contracted: Instance, modes: dict[str, tuple[str, ...]]
) -> tuple[dict[str, set[tuple[str, str]]], callable]:
    """Union-find closure under functionality/injectivity of binary relations.

    For a functional symbol, two out-neighbors of one variable merge; for an
    injective one, two in-neighbors merge. Returns the canonical edge sets
    and the find function. Never fails by itself (callers add their own
    rejection rules).
    """
    find, union = _union_find(contracted.variables)
    raw_edges: dict[str, list[tuple[str, str]]] = {s: [] for s in modes}
    for atom in contracted.atoms:
        if isinstance(atom, Rel) and atom.symbol in modes:
            raw_edges[atom.symbol].append((atom.args[0], atom.args[1]))

    changed = True
    while changed:
        changed = False
        for symbol, kinds in modes.items():
            canon = {(find(u), find(v)) for u, v in raw_edges[symbol]}
            if "functional" in kinds:
                out: dict[str, str] = {}
                for u, v in canon:
                    if u in out and out[u] != v:
                        union(v, out[u])
                        changed = True
                    else:
                        out[u] = v
            if "injective" in kinds:
                inn: dict[str, str] = {}
                for u, v in canon:
                    if v in inn and inn[v] != u:
                        union(u, inn[v])
                        changed = True
                    else:
                        inn[v] = u
    edges = {
        symbol: {(find(u), find(v)) for u, v in raw_edges[symbol]}
        for symbol in modes
    }
    return edges, find


def _has_directed_cycle(edges: set[tuple[str, str]]) -> bool:
    succ = dict(edges)  # functional after closure
    state: dict[str, int] = {}
    for start in succ:
        if state.get(start):
            continue
        path = []
        node = start
        while node in succ and state.get(node, 0) == 0:
            state[node] = 1
            path.append(node)
            node = succ[node]
        if state.get(node, 0) == 1:
            return True
        for p in path:
            state[p] = 2
    return False


def _neq_violated(contracted: Instance, find) -> bool:
    return any(
        isinstance(a, Neq) and find(a.left) == find(a.right)
        for a in contracted.atoms
    )
