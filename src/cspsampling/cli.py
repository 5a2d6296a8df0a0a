"""Command-line interface: solve instances, emit samples, check operations.

Exit codes: 0 = satisfiable (or report produced), 1 = unsatisfiable,
2 = error of any kind. ``--json`` emits the same report as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Optional

from . import io
from .formulas import contract_equalities
from .qf import _MAX_CANDIDATES
from .polymorphisms import (
    OperationTable,
    check_polymorphism,
    is_near_unanimity,
    is_totally_symmetric,
    majority_eq_operation,
    min_operation,
)
from .solvers import (
    solve_ac_over_sampling,
    solve_nu_over_sampling,
    solve_via_sampling,
)

_AC_WARNING = (
    "warning: arc-consistency verdicts are sound only if every sample maps "
    "homomorphically into a model whose image has totally symmetric "
    "polymorphisms of all arities"
)
_NU_WARNING = (
    "warning: (2,3)-consistency verdicts are sound only if the samples carry "
    "a ternary near-unanimity polymorphism"
)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cspsampling",
        description="sampling-based decision procedures for CSPs of theories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide an instance against a theory")
    p_solve.add_argument("--theory", required=True, help="theory-spec file")
    p_solve.add_argument("--instance", required=True, help="instance file")
    p_solve.add_argument("--name", help="theory name (default: last defined)")
    p_solve.add_argument(
        "--method", choices=("hom", "ac", "nu"), default="hom",
        help="hom = exact search (default); ac / nu = consistency pipelines",
    )
    p_solve.add_argument("--json", action="store_true")

    p_sample = sub.add_parser("sample", help="write the samples at one index")
    p_sample.add_argument("--theory", required=True)
    p_sample.add_argument("--name", help="theory name (default: last defined)")
    p_sample.add_argument("-n", type=int, required=True, help="sample index")
    p_sample.add_argument("--out", help="output path (default: stdout)")

    p_check = sub.add_parser("checkpoly", help="check an operation on a structure")
    p_check.add_argument("--structure", required=True, help="structure file")
    p_check.add_argument(
        "--op",
        required=True,
        help="operation-table file, or a builtin: majority_eq, min2, min3, ...",
    )
    p_check.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sample":
            return _cmd_sample(args)
        return _cmd_checkpoly(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "unsatisfiable", so a crash exits 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_solve(args) -> int:
    t0 = time.perf_counter()
    spec = io.parse_theory_spec(_read(args.theory))
    family = spec.family(args.name)
    inst = io.parse_instance(_read(args.instance), family.signature)
    t1 = time.perf_counter()
    contracted, _ = contract_equalities(inst)
    family.generate(len(contracted.variables))
    t2 = time.perf_counter()
    if args.method == "hom":
        result = solve_via_sampling(family, inst)
    elif args.method == "ac":
        print(_AC_WARNING, file=sys.stderr)
        result = solve_ac_over_sampling(family, inst)
    else:
        print(_NU_WARNING, file=sys.stderr)
        result = solve_nu_over_sampling(family, inst)
    t3 = time.perf_counter()

    witness_labels = None
    if result.assignment is not None and result.sample_index is not None:
        sample = family.generate(len(contracted.variables))[result.sample_index]
        witness_labels = {
            v: sample.label(e) for v, e in sorted(result.assignment.items())
        }
    if args.json:
        report = {
            "verdict": result.verdict,
            "method": args.method,
            "witness": witness_labels,
            "sample_index": result.sample_index,
            "timings": {
                "parse_s": t1 - t0,
                "generate_s": t2 - t1,
                "solve_s": t3 - t2,
                "total_s": t3 - t0,
            },
        }
        print(json.dumps(report))
    else:
        print(f"verdict: {result.verdict}")
        print(f"method: {args.method}")
        if result.sample_index is not None:
            print(f"sample_index: {result.sample_index}")
        if witness_labels is not None:
            for v, label in witness_labels.items():
                print(f"witness.{v}: {label}")
    return 0 if result.satisfiable else 1


def _cmd_sample(args) -> int:
    spec = io.parse_theory_spec(_read(args.theory))
    family = spec.family(args.name)
    blocks = [
        io.print_structure(s, name=f"sample{i}")
        for i, s in enumerate(family.generate(args.n))
    ]
    text = "\n".join(blocks)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _builtin_operation(spec: str, domain_size: int) -> Optional[OperationTable]:
    m = re.fullmatch(r"majority_eq|min(\d+)", spec)
    if not m:
        return None
    arity = 3 if m.group(1) is None else int(m.group(1))
    # with 2**arity over the budget the huge power is never taken
    if domain_size > 1 and (
        arity > _MAX_CANDIDATES.bit_length() or domain_size**arity > _MAX_CANDIDATES
    ):
        raise ValueError(
            f"{spec} on {domain_size} elements needs {domain_size}**{arity} table "
            f"entries, over the budget of {_MAX_CANDIDATES:,}"
        )
    if m.group(1) is None:
        return majority_eq_operation(domain_size)
    return min_operation(domain_size, arity)


def _cmd_checkpoly(args) -> int:
    _, structure = io.parse_structure(_read(args.structure))
    op = _builtin_operation(args.op, structure.domain_size)
    if op is None:
        op = io.parse_operation_table(_read(args.op))
    poly = check_polymorphism(op, structure)
    symmetric = is_totally_symmetric(op)
    nu = is_near_unanimity(op) if op.arity >= 3 else None
    if args.json:
        print(
            json.dumps(
                {
                    "polymorphism": poly,
                    "totally_symmetric": symmetric,
                    "near_unanimity": nu,
                }
            )
        )
    else:
        print(f"polymorphism: {str(poly).lower()}")
        print(f"totally_symmetric: {str(symmetric).lower()}")
        print(f"near_unanimity: {'n/a' if nu is None else str(nu).lower()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
