"""Decision procedures over finite structures and sample families.

``hom_search`` is the exact oracle: backtracking search for a homomorphism
from an instance's canonical database into a target structure, honoring
disequalities natively. The consistency procedures (``arc_consistency``,
``establish_23_consistency``) are sound filters that become decision
procedures on targets with the right polymorphisms; they reject
disequalities loudly rather than approximating them.

All three share one propagation engine over integer bitmasks (element k of
the target is bit 1 << k). One pass over the atoms compiles them: each
atom reads its target's plan for its symbol and equality shape, built once
per structure. Seeding narrows each variable's candidates to the
per-position projections of its atoms, or to the diagonal for atoms on
one variable. Atoms with two distinct variables become a pair of arcs from
their relation's ``arc`` query; wider atoms are revised a whole mask
at a time by the target's ``support_masks`` query, up to the generalized
arc-consistency (GAC) fixpoint. A relation answers that query through the
same arcs: a tuple with two distinct values is a tuple of the arc of its
equality pattern, so a wide atom is revised by the diagonal, by the arcs
of the patterns that keep each of its variables in one group, and by a
scan of only the tuples with three or more distinct values. That fixpoint
is the one root of all three procedures: ``arc_consistency`` is the root
alone, ``hom_search`` searches from it, forward-checking wide atoms, and
``establish_23_consistency`` seeds its pair relations, kept as one bit
matrix per ordered pair of variables, from it and closes them a whole
matrix at a time.

A pipeline over a sample family validates and contracts a request once and
hands every sample's decider the result, which the decider does not check
again. An instance passed to a solver directly is validated, its atoms are
checked against the target's signature, and ``hom_search`` contracts its
equalities while the consistency procedures refuse them.

Per-sample runs are independent: solver calls own their mutable state and
inputs are shared read-only, so many solves may run concurrently over one
family. Verdicts over a family are disjunctions, independent of order.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .formulas import Bot, Eq, Instance, Neq, Rel, contract_equalities, validate
from .model import Structure, mask_bits
from .sampling import SampleFamily

_MAX_PAIR_BITS = 1_000_000_000  # pair-matrix and transpose-mask bits of one (2,3) closure


class SolverError(ValueError):
    """Raised when an instance violates a solver's contract."""


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool
    assignment: Optional[dict[str, int]] = None
    sample_index: Optional[int] = None

    @property
    def verdict(self) -> str:
        return "satisfiable" if self.satisfiable else "unsatisfiable"


@dataclass(frozen=True)
class ACState:
    """Per-variable candidate sets at the arc-consistency fixpoint.

    Kept as the fixpoint's bitmasks; ``domains`` lists them as frozensets
    on first read.
    """

    masks: Mapping[str, int]

    @functools.cached_property
    def domains(self) -> Mapping[str, frozenset[int]]:
        return {v: frozenset(mask_bits(m)) for v, m in self.masks.items()}


class _Prepared(Instance):
    """An instance that a pipeline has validated against its family's
    signature and contracted, with no falsum left; a decider handed one
    skips both steps. Only ``_over_sampling`` makes them."""


def _admit(inst: Instance, target: Structure) -> None:
    """Validate a raw instance and check its relation atoms against the
    target's signature."""
    validate(inst)
    if inst.signature != target.signature:
        symbols = target.signature.symbols
        for atom in inst.atoms:
            if isinstance(atom, Rel) and (atom.symbol, len(atom.args)) not in symbols:
                raise SolverError(
                    f"the target has no relation {atom.symbol!r} of arity {len(atom.args)}"
                )


def _plan(target: Structure, symbol: str, shape: tuple[int, ...]) -> tuple:
    """The plan of an atom shape, cached in the target's ``_indexes``, so at
    most one per symbol and shape, whatever instances the target has seen.

    ``shape`` gives each position the first position of its variable. A
    plan is (the first position of each distinct variable, each one's seed
    mask: the diagonal on one variable, else the AND of the projections at
    its positions, and the two arcs of a two-variable atom or None). The
    arcs are the relation's own, made once per shape and direction, so a
    plan shares them with the relation's ``support_masks``.
    """
    firsts = tuple(dict.fromkeys(shape))
    groups = [tuple(p for p, f in enumerate(shape) if f == first) for first in firsts]
    seeds = [target.diagonal_mask(symbol)] if len(firsts) == 1 else [
        functools.reduce(int.__and__, [target.projection_mask(symbol, p) for p in group])
        for group in groups
    ]
    pair = None
    if len(firsts) == 2:
        pair = tuple(target.relations[symbol].arc(*g) for g in (groups, groups[::-1]))
    plan = target._indexes["plan", symbol, shape] = (firsts, seeds, pair)
    return plan


def _compile(
    target: Structure, variables: Sequence[str], atoms: Sequence[Rel]
) -> tuple[dict[str, int], list[tuple], dict[str, list[int]], dict[str, list[tuple]]]:
    """Seeded masks (some may be empty), arcs, the arcs each variable's mask
    feeds, and the wide atoms on each variable, in one pass over the atoms.

    An atom with two distinct variables becomes one arc per direction,
    (affected, watched, the relation's ``arc`` for that shape and
    direction). Atoms with one distinct variable are exhausted by seeding;
    wider atoms are listed under each variable as (atom, its distinct
    variables).
    """
    cand = dict.fromkeys(variables, (1 << target.domain_size) - 1)
    arcs: list[tuple] = []
    arcs_watching: dict[str, list[int]] = {v: [] for v in variables}
    atoms_of: dict[str, list[tuple]] = {v: [] for v in variables}
    plans = target._indexes
    for a in atoms:
        args = a.args
        shape = tuple(map(args.index, args))
        firsts, seeds, pair = plans.get(("plan", a.symbol, shape)) or _plan(
            target, a.symbol, shape
        )
        if pair is not None:
            x, y = args[0], args[firsts[1]]
            cand[x] &= seeds[0]
            cand[y] &= seeds[1]
            arcs_watching[x].append(len(arcs))
            arcs.append((y, x, pair[0]))
            arcs_watching[y].append(len(arcs))
            arcs.append((x, y, pair[1]))
        elif len(firsts) == 1:
            cand[args[0]] &= seeds[0]
        else:
            distinct = tuple(args[p] for p in firsts)
            entry = (a, distinct)
            for v, seed in zip(distinct, seeds):
                cand[v] &= seed
                atoms_of[v].append(entry)
    return cand, arcs, arcs_watching, atoms_of


def _run_arcs(
    arcs: list[tuple],
    arcs_watching: dict[str, list[int]],
    cand: dict[str, int],
    queue: deque,
    queued: set,
    trail: list,
    wide: bool,
) -> bool:
    """Arc revision across two-variable atoms; old masks on the trail.

    A singleton watched domain supports exactly the assigned value's
    partner mask, so that case is one ``partners`` query and one AND; this
    is what makes assignments enforce these atoms exactly. A wide watched
    domain is the arc's ``revise`` query, which the relation answers: by a
    pigeonhole-bounded recheck over listed partner masks, or factor by
    factor on a product sample. Wide revision runs in fixpoints; during
    search the singleton case carries the pruning.
    """
    while queue:
        arc_id = queue.popleft()
        queued.discard(arc_id)
        affected, watched, arc = arcs[arc_id]
        dom_w = cand[watched]
        dom_a = cand[affected]
        if dom_w & (dom_w - 1) == 0:  # singleton
            new = dom_a & arc.partners(dom_w.bit_length() - 1)
        elif not wide:
            continue
        else:
            new = arc.revise(dom_a, dom_w)
        if new != dom_a:
            trail.append((affected, dom_a))
            cand[affected] = new
            if not new:
                return False
            for next_id in arcs_watching[affected]:
                if next_id not in queued:
                    queue.append(next_id)
                    queued.add(next_id)
    return True


def _gac_fixpoint(
    target: Structure, variables: Sequence[str], atoms: Sequence[Rel]
) -> Optional[
    tuple[dict[str, int], list[tuple], dict[str, list[int]], dict[str, list[tuple]]]
]:
    """Masks at the GAC fixpoint with the arcs and wide atoms of ``_compile``,
    or None.

    Arcs run to their fixpoint, then a sweep over the wide atoms narrows
    each atom's variables to the values that some tuple within the masks
    gives them, one ``support_masks`` query per atom, until a sweep drops
    nothing. An atom whose masks have not changed since its last revision
    is skipped: the tuples that supported it then support it still. Every
    step drops only unsupported values, so the result is the unique largest
    arc-consistent narrowing; None means a mask emptied.
    """
    cand, arcs, arcs_watching, atoms_of = _compile(target, variables, atoms)
    if not all(cand.values()):
        return None
    wide = {a: distinct for listed in atoms_of.values() for a, distinct in listed}
    revised: dict[Rel, tuple[int, ...]] = {}  # the masks each atom was last revised at
    queue = deque(range(len(arcs)))
    while all(cand.values()) and _run_arcs(
        arcs, arcs_watching, cand, queue, set(queue), [], True
    ):
        narrowed: dict[str, None] = {}  # insertion order keeps the requeue order fixed
        for atom, distinct in wide.items():
            if revised.get(atom) == tuple(cand[u] for u in distinct):
                continue
            supports = target.support_masks(atom.symbol, atom.args, cand)
            for u, mask in supports.items():
                if mask != cand[u]:
                    if not mask:
                        return None
                    cand[u] = mask
                    narrowed[u] = None
            revised[atom] = tuple(supports.values())
        if not narrowed:
            return cand, arcs, arcs_watching, atoms_of
        queue = deque(dict.fromkeys(i for u in narrowed for i in arcs_watching[u]))
    return None


def hom_search(inst: Instance, target: Structure) -> SolveResult:
    """Exact satisfiability of an instance in one structure.

    Equalities are contracted away first; disequalities are enforced as
    value disequality on the assignment. Search assigns the variable with
    the smallest candidate set first (ties by name), values in ascending
    order. The search starts from the GAC fixpoint of the shared engine;
    during search, wider atoms are forward-checked by one ``support_masks``
    query with the assigned variables' singleton masks, which narrows each
    open variable to the values some tuple through the assignment gives it
    (so a fully assigned atom holds with no membership test), and
    two-variable atoms are enforced exactly whenever either side
    collapses to a single value. The search keeps its own stack, so
    instance depth is not bounded by recursion.
    """
    contracted, mapping = inst, None
    if type(inst) is not _Prepared:
        _admit(inst, target)
        contracted, mapping = contract_equalities(inst)
        if contracted.has_bot():
            return SolveResult(False)
    variables = contracted.variables
    if not variables:
        return SolveResult(True, {}, None)

    atoms = [a for a in contracted.atoms if isinstance(a, Rel)]
    fixpoint = _gac_fixpoint(target, variables, atoms)
    if fixpoint is None:
        return SolveResult(False)
    cand, arcs, arcs_watching, atoms_of = fixpoint
    neqs = [a for a in contracted.atoms if isinstance(a, Neq)]
    neq_neighbors: dict[str, list[str]] = {v: [] for v in variables}
    for a in neqs:
        neq_neighbors[a.left].append(a.right)
        neq_neighbors[a.right].append(a.left)

    assignment: dict[str, int] = {}
    unassigned = set(variables)

    def propagate(var: str, value: int, trail: list) -> bool:
        touched = []
        bit = 1 << value
        for other in neq_neighbors[var]:  # an assigned one empties on a clash
            if cand[other] & bit:
                trail.append((other, cand[other]))
                cand[other] &= ~bit
                if not cand[other]:
                    return False
                touched.append(other)
        for atom, distinct in atoms_of[var]:
            open_vars = [x for x in distinct if x not in assignment]
            if not open_vars:  # the check at the last open variable left only supports
                continue
            # assigned variables keep singleton masks; open ones are unfiltered
            fixed = {x: cand[x] for x in atom.args if x in assignment}
            allowed = target.support_masks(atom.symbol, atom.args, fixed)
            for u in open_vars:
                new = cand[u] & allowed[u]
                if new == cand[u]:
                    continue
                trail.append((u, cand[u]))
                cand[u] = new
                if not new:
                    return False
                touched.append(u)
        touched.append(var)
        queue = deque(dict.fromkeys(i for u in touched for i in arcs_watching[u]))
        return _run_arcs(arcs, arcs_watching, cand, queue, set(queue), trail, False)

    # the next variable is the least (candidate count, name) among the open
    # ones, popped from a heap: every change to an open variable's mask
    # pushes a fresh entry, and a popped entry that no longer matches its
    # variable is dropped; the heap is rebuilt when stale entries pile up
    heap = [(cand[v].bit_count(), v) for v in variables]
    heapq.heapify(heap)

    def reschedule(trail: list) -> None:
        for u, _ in trail:
            if u in unassigned:
                heapq.heappush(heap, (cand[u].bit_count(), u))

    # depth-first search; a frame is (variable, its mask on entry, the values
    # not yet tried, the trail of the value being tried)
    stack: list[tuple] = []
    descend = True
    while True:
        if descend:
            if not unassigned:
                if mapping is None:
                    return SolveResult(True, {v: assignment[v] for v in variables}, None)
                witness = {v: assignment[mapping[v]] for v in inst.variables}
                return SolveResult(True, witness, None)
            if len(heap) > 4 * len(variables):
                heap = [(cand[v].bit_count(), v) for v in unassigned]
                heapq.heapify(heap)
            while True:
                count, var = heapq.heappop(heap)
                if var in unassigned and cand[var].bit_count() == count:
                    break
            unassigned.discard(var)
            stack.append((var, cand[var], mask_bits(cand[var]), []))
        var, entry_dom, values, trail = stack[-1]
        for u, old in reversed(trail):
            cand[u] = old
        reschedule(trail)
        trail.clear()
        cand[var] = entry_dom
        value = next(values, None)
        if value is None:
            assignment.pop(var, None)
            unassigned.add(var)
            heapq.heappush(heap, (entry_dom.bit_count(), var))
            stack.pop()
            if not stack:
                return SolveResult(False)
            descend = False
            continue
        assignment[var] = value
        cand[var] = 1 << value
        descend = propagate(var, value, trail)
        if descend:
            reschedule(trail)


def check_witness(
    inst: Instance, target: Structure, assignment: Mapping[str, int]
) -> bool:
    """Verify a claimed satisfying assignment directly against the atoms;
    an atom on a symbol the target lacks holds for no tuple."""
    for v in inst.variables:
        if v not in assignment:
            return False
    for atom in inst.atoms:
        if isinstance(atom, Bot):
            return False
        if isinstance(atom, Rel):
            t = tuple(assignment[x] for x in atom.args)
            if t not in target.relations.get(atom.symbol, ()):
                return False
        elif isinstance(atom, Eq):
            if assignment[atom.left] != assignment[atom.right]:
                return False
        elif isinstance(atom, Neq):
            if assignment[atom.left] == assignment[atom.right]:
                return False
    return True


def _relation_atoms(inst: Instance, target: Structure, name: str) -> Optional[list[Rel]]:
    """The relation atoms of an instance without equalities or
    disequalities, or None when it holds falsum."""
    if type(inst) is not _Prepared:
        _admit(inst, target)
        for atom in inst.atoms:
            if isinstance(atom, Eq):
                raise SolverError(f"{name} requires equality-contracted input")
            if isinstance(atom, Neq):
                raise SolverError(f"{name} does not support disequalities")
        if inst.has_bot():
            return None
    return [a for a in inst.atoms if isinstance(a, Rel)]


def arc_consistency(inst: Instance, target: Structure) -> Optional[ACState]:
    """Generalized arc-consistency fixpoint, or None when inconsistent.

    A value stays in a variable's candidate set only while every atom on
    the variable has a supporting tuple within the current sets. The
    fixpoint is unique, so the result does not depend on processing order.
    Never reports inconsistency on a satisfiable pair. Equalities must be
    contracted away beforehand; disequalities are not supported here.
    """
    atoms = _relation_atoms(inst, target, "arc consistency")
    if atoms is None:
        return None
    fixpoint = _gac_fixpoint(target, inst.variables, atoms)
    return None if fixpoint is None else ACState(fixpoint[0])


def _repeat(pattern: int, period: int, count: int) -> int:
    """``count`` copies of a pattern narrower than ``period``, period bits apart."""
    mask, copies = (pattern if count else 0), 1
    while copies < count:
        more = min(copies, count - copies)
        mask |= (mask & ((1 << more * period) - 1)) << copies * period
        copies += more
    return mask


_SWAPS: dict[int, tuple[tuple[int, int], ...]] = {}  # by side, for sides up to 1024


def _transpose_swaps(side: int) -> tuple[tuple[int, int], ...]:
    """The (shift, mask) delta swaps that transpose a side x side bit matrix.

    Bit a * side + b holds entry (a, b), and side is a power of two. The
    swap for bit j of an index exchanges that bit between row and column:
    it moves the entries whose column has bit j and whose row lacks it
    ``(side - 1) * j`` positions up, and those there down. The masks of
    sides up to 1024 are kept, under 2 MB in all; a larger side's masks,
    log2(side) ints of side**2 bits each, are built anew for each call.
    """
    swaps = _SWAPS.get(side)
    if swaps is None:
        steps = []
        j = 1
        while j < side:
            row = _repeat(((1 << j) - 1) << j, 2 * j, side // (2 * j))
            block = _repeat(row, side, j)  # j rows, each with column bit j set
            steps.append(((side - 1) * j, _repeat(block, 2 * j * side, side // (2 * j))))
            j <<= 1
        swaps = tuple(steps)
        if side <= 1024:
            _SWAPS[side] = swaps
    return swaps


def _transpose(matrix: int, swaps: tuple[tuple[int, int], ...]) -> int:
    """The transpose of a square bit matrix, by its ``_transpose_swaps``."""
    for shift, mask in swaps:
        t = (matrix ^ (matrix >> shift)) & mask
        matrix ^= t | (t << shift)
    return matrix


def establish_23_consistency(inst: Instance, target: Structure) -> bool:
    """(2,3)-consistency closure; True means no pair relation emptied.

    Keeps, for every ordered pair of variables (u, w), one bit matrix: the
    pair u = a, w = b is bit a * side + b, where side is the target's size
    padded to a power of two. The matrices are seeded from the GAC fixpoint
    and the atoms on the pair. A value pair is pruned when some third
    variable admits no value compatible with both sides and with every atom
    living inside the triple, or when an atom spanning more than three
    variables has no supporting tuple extending the pair. A pair matrix is
    revised whole: for each third variable z without a triple atom on
    {x, y, z}, the matrix of (x, y) is ANDed with the composition of those
    of (x, z) and (z, y), formed one z-value w at a time by placing row w
    of (z, y) at every row whose (x, z) row holds w. Only the pairs that
    survive are checked one at a time, against triple atoms and wider atoms
    through ``support_masks``; the matrix of (y, x) is then the transpose.
    The closure is the unique largest one, whatever the order of revision.
    The GAC seeding removes nothing the closure keeps, since every value of
    a consistent closure has GAC support.

    The closure runs only on the instance's core. Two variables are
    neighbours when they share an atom. After the GAC fixpoint, a variable v
    with at most one neighbour u among those left is stripped, provided each
    of u's rows of the seeded (u, v) matrix, which holds all the atoms on
    {u, v} together, is nonempty (GAC gives this when there is one atom);
    this repeats until no variable goes. Only the core's pairs are seeded,
    and fewer than 3 core variables leave no third, so their seeded pairs
    decide. The verdict is the same. A stripped v lies in no triple or wider
    atom, since each variable of one keeps two neighbours while the atom's
    variables are all left. Extend the core's closure P to v: (u, v) keeps
    its seeded pairs whose u-value has a row in P, and (x, v) is P(x, u)
    composed with (u, v). Every (2,3) condition holds there: each u-value
    keeps a partner in v by the row check, and a wide atom on x checked at
    (x, v) is covered by the check P passed at (x, u). So the extension lies
    inside the whole closure, the largest consistent network, whose
    restriction to the core lies inside P: a pair empties in one iff it does
    in the other. Without the row check this fails: with D = disequality on
    {0, 1, 2}, U = {1, 2}, E = identity and
    F = {(0, 1), (1, 0), (1, 1), (2, 2)}, the instance U(x), U(y), D(x, y),
    D(x, u), D(y, u), E(u, v), F(u, v) passes GAC and the closure refutes
    it, but only through v. Arc-consistent tree-shaped networks are
    globally consistent (Freuder, J. ACM 1982); this is that rule inside
    the closure.

    On targets with a ternary near-unanimity polymorphism a consistent
    outcome implies satisfiability; elsewhere it is a sound filter only.
    When the matrices and the log2(side) transpose masks of side**2 bits
    would hold more than ``_MAX_PAIR_BITS`` bits in all, SolverError is
    raised before any is built.
    """
    atoms = _relation_atoms(inst, target, "(2,3)-consistency")
    if atoms is None:
        return False
    variables = inst.variables
    size = target.domain_size
    side = 1 << (size - 1).bit_length()
    # one matrix per ordered pair, and log2(side) transpose masks as large
    bits = (len(variables) * (len(variables) - 1) + side.bit_length() - 1) * side * side
    if bits > _MAX_PAIR_BITS:
        raise SolverError(
            f"(2,3)-consistency on {len(variables)} variables over {size:,} elements "
            f"needs {bits:,} bits of pair matrices and transpose masks, over the pair "
            f"budget of {_MAX_PAIR_BITS:,}"
        )
    fixpoint = _gac_fixpoint(target, variables, atoms)
    if fixpoint is None:
        return False
    cand, arcs, _, atoms_of = fixpoint
    values = {u: list(mask_bits(cand[u])) for u in variables}
    spread = {u: sum(1 << a * side for a in values[u]) for u in variables}
    arcs_on: dict[tuple[str, str], list] = {}  # by (watched, affected)
    for affected, watched, arc in arcs:
        arcs_on.setdefault((watched, affected), []).append(arc)

    def seeded(u: str, w: str) -> int:
        """The pairs of (u, w) within the GAC masks and the atoms on {u, w}."""
        matrix = spread[u] * cand[w]
        for arc in arcs_on.get((u, w), ()):
            matrix &= sum(arc.partners(a) << a * side for a in values[u])
        return matrix

    stride = _repeat(1, side, size)  # bit a * side for every row a
    near: dict[str, set[str]] = {v: set() for v in variables}  # the variables sharing an atom
    for atom in atoms:
        for v in atom.args:
            near[v].update(atom.args)
    for v in variables:
        near[v].discard(v)
    core = dict.fromkeys(variables)
    leaves = list(variables)
    while leaves:
        v = leaves.pop()
        if v not in core or len(near[v]) > 1:
            continue
        if near[v]:
            (u,) = near[v]
            if len(arcs_on[(u, v)]) > 1:  # GAC gives every value of u a partner in one atom
                rows_of_u = seeded(u, v)
                shift = side
                while shift > 1:  # fold each row onto its first bit
                    shift >>= 1
                    rows_of_u |= rows_of_u >> shift
                if rows_of_u & stride != spread[u]:  # a value of u has no partner in v
                    continue
            near[u].discard(v)
            leaves.append(u)
        del core[v]
    variables = list(core)
    # pair[(u, w)] has bit a * side + b while u = a, w = b is still a pair
    pair = {(u, w): seeded(u, w) for u in variables for w in variables if u != w}
    if not all(pair.values()):
        return False
    if len(variables) < 3:
        return True
    triples: dict[frozenset[str], list[Rel]] = {}
    for atom in atoms:
        if len(set(atom.args)) == 3:
            triples.setdefault(frozenset(atom.args), []).append(atom)
    wide_of = {
        v: [atom for atom, distinct in atoms_of[v] if len(distinct) > 3]
        for v in variables
    }
    row_full = (1 << side) - 1
    swaps = _transpose_swaps(side)

    def rows(matrix: int) -> list[int]:
        return [(matrix >> a * side) & row_full for a in range(size)]

    def unsupported(x: str, y: str, new: int, thirds: list, bound: list, wide: list) -> int:
        """The pairs of ``new`` on (x, y) that a triple or wider atom refutes."""
        x_rows = {z: rows(pair[(x, z)]) for z in thirds}
        y_rows = {z: rows(pair[(y, z)]) for z in thirds}
        dropped = 0
        for a, row in enumerate(rows(new)):
            for b in mask_bits(row):
                masks = {x: 1 << a, y: 1 << b}
                for z, extra in bound:
                    both = x_rows[z][a] & y_rows[z][b]
                    for atom in extra:
                        if not both:
                            break
                        masks[z] = both
                        both = target.support_masks(atom.symbol, atom.args, masks)[z]
                    if not both:
                        dropped |= 1 << a * side + b
                        break
                else:
                    if wide:
                        for z in thirds:
                            masks[z] = x_rows[z][a] & y_rows[z][b]
                        if not all(
                            any(target.support_masks(atom.symbol, atom.args, masks).values())
                            for atom in wide
                        ):
                            dropped |= 1 << a * side + b
        return dropped

    pair_keys = list(itertools.combinations(variables, 2))
    pairs_of: dict[str, list] = {v: [] for v in variables}  # the pairs holding each variable
    for key in pair_keys:
        for v in key:
            pairs_of[v].append(key)
    queue: deque[tuple[str, str]] = deque(pair_keys)
    queued = set(queue)
    while queue:
        key = queue.popleft()
        queued.discard(key)
        x, y = key
        old = new = pair[key]
        # the thirds, the free ones, the bound ones with their triple atoms
        thirds = [z for z in variables if z != x and z != y]
        free, bound = thirds, []
        if triples:
            found = [(z, triples.get(frozenset((x, y, z)))) for z in thirds]
            free = [z for z, extra in found if extra is None]
            bound = [(z, extra) for z, extra in found if extra is not None]
        wide = list(dict.fromkeys(wide_of[x] + wide_of[y]))
        # (a, b) keeps a partner on z iff some w paired with a has b as a partner
        for z in free:
            if not new:
                break
            through_x, through_y = pair[(x, z)], pair[(z, y)]
            reach = 0
            for w in values[z]:
                column = (through_x >> w) & stride
                if column:
                    reach |= column * ((through_y >> w * side) & row_full)
                    if reach & new == new:
                        break
            new &= reach
        if new and (bound or wide):
            new ^= unsupported(x, y, new, thirds, bound, wide)
        if new != old:
            if not new:
                return False
            pair[key] = new
            pair[(y, x)] = _transpose(new, swaps)
            for other in pairs_of[x] + pairs_of[y]:
                if other != key and other not in queued:
                    queue.append(other)
                    queued.add(other)
    return True


def _over_sampling(
    family: SampleFamily,
    inst: Instance,
    decide: Callable[[Instance, Structure], SolveResult],
    neq_error: Optional[str],
) -> SolveResult:
    """Run ``decide`` on the samples at the instance's index, its number of
    variables after contracting equalities; the first sample it accepts
    gives the verdict. Disequalities raise ``neq_error`` when it is set.

    The instance is validated, checked against the family's signature (so
    against every sample's) and contracted here, once per request; each
    ``decide`` call gets it as a ``_Prepared`` and skips those steps."""
    validate(inst)
    if inst.signature != family.signature:
        raise SolverError("instance signature differs from the family's signature")
    contracted, mapping = contract_equalities(inst)
    if contracted.has_bot():
        return SolveResult(False)
    if neq_error and any(isinstance(a, Neq) for a in contracted.atoms):
        raise SolverError(neq_error)
    prepared = _Prepared(contracted.signature, contracted.atoms, contracted.variables)
    for index, sample in enumerate(family.generate(len(prepared.variables))):
        res = decide(prepared, sample)
        if res.satisfiable:
            witness = None
            if res.assignment is not None:
                witness = {v: res.assignment[mapping[v]] for v in inst.variables}
            return SolveResult(True, witness, index)
    return SolveResult(False)


def solve_via_sampling(family: SampleFamily, inst: Instance) -> SolveResult:
    """Decide an instance by exact search over the samples at its index.

    The index is the number of distinct variables after contracting
    equalities. Satisfiable iff some sample admits a homomorphism; correct
    and complete whenever the family really is a sampling for its theory.
    Disequalities are permitted only for equality-matching families.
    """
    neq_error = None
    if not family.equality_matching:
        neq_error = "disequalities require an equality-matching sample family"
    return _over_sampling(family, inst, hom_search, neq_error)


def solve_ac_over_sampling(family: SampleFamily, inst: Instance) -> SolveResult:
    """Arc-consistency over every sample; satisfiable iff some sample passes.

    Sound as a decision procedure only under the caller-asserted hypothesis
    that every sample maps homomorphically into a model whose image has
    totally symmetric polymorphisms of all arities; the verdict carries no
    witness. Disequalities are not supported.
    """
    return _over_sampling(
        family,
        inst,
        lambda c, s: SolveResult(arc_consistency(c, s) is not None),
        "arc-consistency solving does not support disequalities",
    )


def solve_nu_over_sampling(family: SampleFamily, inst: Instance) -> SolveResult:
    """(2,3)-consistency over every sample; satisfiable iff some sample passes.

    Sound as a decision procedure only when the samples carry a ternary
    near-unanimity polymorphism; the verdict carries no witness.
    """
    return _over_sampling(
        family,
        inst,
        lambda c, s: SolveResult(establish_23_consistency(c, s)),
        "(2,3)-consistency solving does not support disequalities",
    )
